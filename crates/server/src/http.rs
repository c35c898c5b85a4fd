//! A minimal, std-only, allocation-free HTTP/1.1 request/response codec.
//!
//! Only what serving a read-only database needs: `GET`/`HEAD` requests
//! plus `POST` with a bounded `Content-Length` body (the batch and
//! plan-registration endpoints), a bounded request head, persistent
//! connections (`Connection: keep-alive` semantics with HTTP/1.1
//! defaults), `Content-Length`-delimited and chunked responses, and
//! conditional requests (`If-None-Match` → `304`). Anything outside
//! that — transfer-encoded request bodies, upgrades — is rejected with
//! a 4xx/5xx rather than implemented.
//!
//! The codec is built for a steady state that never touches the heap:
//!
//! * [`RequestBuf`] owns one fixed-capacity connection buffer; requests
//!   are read into it and parsed **in place** — [`Request`] borrows the
//!   method, target, and header values as `&str` subslices, and
//!   pipelined bytes simply stay in the buffer for the next turn.
//! * [`ResponseBuf`] owns a reusable header scratch; response heads are
//!   assembled from precomputed static fragments (status lines, header
//!   names) plus stack-formatted integers, and head + body are handed to
//!   the socket in a **single vectored write** ([`write_resumable`])
//!   instead of multiple small writes.
//!
//! The parser never allocates proportionally to attacker-controlled
//! sizes: the head must fit [`MAX_HEAD`] or the request is answered 431.

use std::io::{self, IoSlice, Read, Write};
use std::ops::Range;
use std::sync::Arc;

/// Longest accepted request line (method + target + version).
const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Most accepted header lines per request.
const MAX_HEADERS: usize = 64;
/// Longest accepted single header line.
const MAX_HEADER_LINE: usize = 8 * 1024;
/// Total request-head cap (request line + all headers + terminator); also
/// the fixed connection-buffer size. Tighter than
/// `MAX_REQUEST_LINE + MAX_HEADERS * MAX_HEADER_LINE` on purpose: a
/// legitimate GET head is a few hundred bytes.
pub const MAX_HEAD: usize = 32 * 1024;

/// A parsed request head, borrowing the connection buffer in place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request<'a> {
    /// The method verb as received (`GET`, `HEAD`).
    pub method: &'a str,
    /// The verbatim request target, still percent-encoded — the raw
    /// fast-lane cache key (e.g. `/v1/query?uarch=Skylake&port=5`).
    pub target: &'a str,
    /// `true` when the connection should stay open after the response.
    pub keep_alive: bool,
    /// The raw `If-None-Match` header value, if present.
    pub if_none_match: Option<&'a str>,
    /// Declared request-body length (`Content-Length`), 0 when absent.
    /// The transport enforces its body cap *before* reading a byte of it
    /// and answers oversize declarations with a 413.
    pub content_length: usize,
    /// Bytes this head occupied in the buffer (consumed after the
    /// response is written — see [`RequestBuf::consume`]).
    pub head_len: usize,
}

impl Request<'_> {
    /// The path component of the target (before `?`).
    #[must_use]
    pub fn path(&self) -> &str {
        self.target.split_once('?').map_or(self.target, |(path, _)| path)
    }

    /// The raw query string after `?` (empty if absent).
    #[must_use]
    pub fn query(&self) -> &str {
        self.target.split_once('?').map_or("", |(_, query)| query)
    }
}

/// Why reading a request failed.
#[derive(Debug)]
pub enum RequestError {
    /// The client closed the connection before sending a request line.
    ConnectionClosed,
    /// The request was malformed or exceeded a parser cap; the payload is
    /// the status code and message to answer with.
    Bad(u16, String),
    /// An I/O error on the socket (including the idle keep-alive timeout).
    Io(io::Error),
}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> RequestError {
        RequestError::Io(e)
    }
}

fn bad(status: u16, message: impl Into<String>) -> RequestError {
    RequestError::Bad(status, message.into())
}

/// The per-connection request buffer: one fixed [`MAX_HEAD`]-byte
/// allocation made at connection setup, reused for every request the
/// connection carries (including pipelined ones). See the module docs.
pub struct RequestBuf {
    buf: Box<[u8]>,
    /// Bytes of `buf` currently holding unconsumed socket data.
    filled: usize,
    /// Scan cursor for the head terminator, so refills never rescan.
    scanned: usize,
}

impl Default for RequestBuf {
    fn default() -> RequestBuf {
        RequestBuf::new()
    }
}

impl RequestBuf {
    /// A fresh buffer (the only allocation this type ever makes).
    #[must_use]
    pub fn new() -> RequestBuf {
        RequestBuf { buf: vec![0u8; MAX_HEAD].into_boxed_slice(), filled: 0, scanned: 0 }
    }

    /// A buffer that defers its [`MAX_HEAD`] allocation until the first
    /// [`RequestBuf::read_request`] call. For transports holding many
    /// mostly-idle connections (the epoll reactor), a connection that
    /// never sends a byte then never pays for a buffer.
    #[must_use]
    pub fn lazy() -> RequestBuf {
        RequestBuf { buf: Box::default(), filled: 0, scanned: 0 }
    }

    /// Bytes currently buffered but not yet consumed. Lets a non-blocking
    /// caller distinguish "no progress" from "partial head arrived" after
    /// a [`io::ErrorKind::WouldBlock`] return (slow-loris accounting).
    #[must_use]
    pub fn filled(&self) -> usize {
        self.filled
    }

    /// Reads one request head from `stream` (using bytes already buffered
    /// first) and parses it in place.
    ///
    /// After writing the response, call [`RequestBuf::consume`] with the
    /// request's [`Request::head_len`] to release the bytes.
    ///
    /// # Errors
    ///
    /// [`RequestError::ConnectionClosed`] on clean EOF before a request,
    /// [`RequestError::Bad`] for malformed or over-limit requests (answer
    /// it and close), [`RequestError::Io`] for socket failures.
    pub fn read_request(&mut self, stream: &mut impl Read) -> Result<Request<'_>, RequestError> {
        if self.buf.is_empty() {
            // Deferred from RequestBuf::lazy(). Probe from the stack
            // first: a non-blocking caller polls a just-accepted socket
            // that usually has nothing yet, and materializing (and
            // zeroing) MAX_HEAD per parked connection would make 10k
            // idle connections pay ~300 MB of touched pages for
            // buffers that never see a byte. Only a connection that
            // actually delivers data pays for its buffer (exactly once).
            let mut probe = [0u8; 1024];
            let read = stream.read(&mut probe)?;
            if read == 0 {
                return Err(RequestError::ConnectionClosed);
            }
            self.buf = vec![0u8; MAX_HEAD].into_boxed_slice();
            self.buf[..read].copy_from_slice(&probe[..read]);
            self.filled = read;
        }
        let head_len = loop {
            // Resume the terminator scan two bytes back: a terminator may
            // straddle the previous fill boundary.
            let from = self.scanned.saturating_sub(2);
            if let Some(end) = find_head_end(&self.buf[..self.filled], from) {
                break end;
            }
            self.scanned = self.filled;
            if self.filled == self.buf.len() {
                return Err(bad(431, "request head too large"));
            }
            let read = stream.read(&mut self.buf[self.filled..])?;
            if read == 0 {
                if self.filled == 0 {
                    return Err(RequestError::ConnectionClosed);
                }
                return Err(bad(400, "connection closed mid-request"));
            }
            self.filled += read;
        };
        parse_head(&self.buf[..head_len])
    }

    /// Releases the bytes of an answered request, shifting any pipelined
    /// remainder to the front of the buffer.
    pub fn consume(&mut self, head_len: usize) {
        debug_assert!(head_len <= self.filled);
        self.buf.copy_within(head_len..self.filled, 0);
        self.filled -= head_len;
        self.scanned = 0;
    }

    /// Moves up to `len` request-body bytes that arrived with the head
    /// (read-ahead past `head_len`) into `out`, consuming the head *and*
    /// the moved bytes from the buffer. Returns how many body bytes were
    /// moved; the caller reads the remaining `len - moved` bytes straight
    /// off the socket into `out`.
    ///
    /// This invalidates the borrowed [`Request`] — the caller copies the
    /// fields it needs (method, target) into per-connection scratch first.
    pub fn take_body(&mut self, head_len: usize, len: usize, out: &mut Vec<u8>) -> usize {
        debug_assert!(head_len <= self.filled);
        let moved = (self.filled - head_len).min(len);
        out.extend_from_slice(&self.buf[head_len..head_len + moved]);
        self.consume(head_len + moved);
        moved
    }
}

/// Finds the end of a request head within `buf[..]`, scanning from
/// `from`: the byte index just past the first empty line (`LF LF` or
/// `LF CR LF`), or `None` when the head is still incomplete.
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    for i in from..buf.len() {
        if buf[i] == b'\n' {
            if buf.get(i + 1) == Some(&b'\n') {
                return Some(i + 2);
            }
            if buf.get(i + 1..i + 3) == Some(b"\r\n".as_slice()) {
                return Some(i + 3);
            }
        }
    }
    None
}

/// Parses one complete head (`head` ends with its empty line).
fn parse_head(head: &[u8]) -> Result<Request<'_>, RequestError> {
    let text = std::str::from_utf8(head).map_err(|_| bad(400, "request head is not UTF-8"))?;
    let mut lines = text.split('\n').map(|line| line.strip_suffix('\r').unwrap_or(line));

    let request_line = lines.next().unwrap_or("");
    if request_line.len() > MAX_REQUEST_LINE {
        return Err(bad(431, "request line too long"));
    }
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(bad(400, format!("malformed request line {request_line:?}"))),
    };
    let mut keep_alive = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => return Err(bad(505, format!("unsupported version {other:?}"))),
    };

    let mut if_none_match = None;
    let mut content_length: Option<usize> = None;
    let mut headers = 0usize;
    for line in lines {
        if line.is_empty() {
            continue; // the terminator's empty line(s)
        }
        if line.len() > MAX_HEADER_LINE {
            return Err(bad(431, "header too long"));
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(bad(431, "too many headers"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad(400, format!("malformed header {line:?}")));
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("connection") {
            // Token list; "close" or "keep-alive" decide, case-insensitively.
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        } else if name.eq_ignore_ascii_case("if-none-match") {
            if_none_match = Some(value);
        } else if name.eq_ignore_ascii_case("content-length") {
            // Conflicting lengths desynchronize the connection (request
            // smuggling); reject rather than pick one.
            if content_length.is_some() {
                return Err(bad(400, "duplicate Content-Length"));
            }
            let Ok(n) = value.parse::<usize>() else {
                return Err(bad(400, format!("invalid Content-Length {value:?}")));
            };
            content_length = Some(n);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(bad(501, "transfer-encoding is not supported"));
        }
    }

    Ok(Request {
        method,
        target,
        keep_alive,
        if_none_match,
        content_length: content_length.unwrap_or(0),
        head_len: head.len(),
    })
}

/// The standard status line for the status codes this server emits.
#[must_use]
pub fn status_line(status: u16) -> &'static str {
    match status {
        200 => "HTTP/1.1 200 OK\r\n",
        304 => "HTTP/1.1 304 Not Modified\r\n",
        400 => "HTTP/1.1 400 Bad Request\r\n",
        403 => "HTTP/1.1 403 Forbidden\r\n",
        404 => "HTTP/1.1 404 Not Found\r\n",
        405 => "HTTP/1.1 405 Method Not Allowed\r\n",
        413 => "HTTP/1.1 413 Payload Too Large\r\n",
        431 => "HTTP/1.1 431 Request Header Fields Too Large\r\n",
        501 => "HTTP/1.1 501 Not Implemented\r\n",
        503 => "HTTP/1.1 503 Service Unavailable\r\n",
        505 => "HTTP/1.1 505 HTTP Version Not Supported\r\n",
        _ => "HTTP/1.1 500 Internal Server Error\r\n",
    }
}

/// How much of the response to put on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyMode {
    /// Headers + body (`GET`).
    Full,
    /// Identical headers (including `Content-Length`), no body (`HEAD`).
    HeaderOnly,
}

/// Appends the decimal form of `v` without allocating.
fn push_u64(out: &mut Vec<u8>, v: u64) {
    let mut tmp = [0u8; 20];
    let mut at = tmp.len();
    let mut v = v;
    loop {
        at -= 1;
        tmp[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&tmp[at..]);
}

/// Formats an entity tag as the 16 lowercase hex digits of `etag` into a
/// stack buffer (the quoted form on the wire is `"%016x"`).
#[must_use]
pub fn etag_hex(etag: u64) -> [u8; 16] {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = [0u8; 16];
    for (i, digit) in out.iter_mut().enumerate() {
        *digit = HEX[((etag >> ((15 - i) * 4)) & 0xF) as usize];
    }
    out
}

/// Whether an `If-None-Match` header value matches `etag` (our strong
/// `"%016x"` form). List-aware; `*` matches any representation; a weak
/// `W/` prefix is ignored for the comparison, as RFC 7232 prescribes for
/// `If-None-Match`. Allocation-free.
#[must_use]
pub fn etag_matches(header: &str, etag: u64) -> bool {
    let hex = etag_hex(etag);
    header.split(',').any(|token| {
        let token = token.trim();
        if token == "*" {
            return true;
        }
        let token = token.strip_prefix("W/").unwrap_or(token);
        token.len() == 18
            && token.starts_with('"')
            && token.ends_with('"')
            && token.as_bytes()[1..17] == hex
    })
}

/// Outcome of one [`write_resumable`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteProgress {
    /// Every byte of head + body is on the wire.
    Complete,
    /// The socket returned [`io::ErrorKind::WouldBlock`]; `cursor` records
    /// how far the response got. Call again (with the same head, body, and
    /// cursor) once the socket reports writable.
    Pending,
}

/// Writes `head` then `body` from `*cursor` (a byte offset into the
/// logical head-then-body stream) with as few syscalls as the socket
/// allows — one `writev(2)` in the common case — advancing `cursor` past
/// every byte accepted.
///
/// `EINTR` is retried in place; `EAGAIN`/`EWOULDBLOCK` returns
/// [`WriteProgress::Pending`] with the cursor parked mid-response, which
/// is what lets a non-blocking transport resume a partially written
/// response on the next writable event instead of erroring the
/// connection.
///
/// # Errors
///
/// Propagates socket write failures; a zero-length write is reported as
/// [`io::ErrorKind::WriteZero`].
pub fn write_resumable(
    writer: &mut impl Write,
    head: &[u8],
    body: &[u8],
    cursor: &mut usize,
) -> io::Result<WriteProgress> {
    let total = head.len() + body.len();
    while *cursor < total {
        let head_rest = &head[(*cursor).min(head.len())..];
        let body_rest = &body[(*cursor).saturating_sub(head.len())..];
        let written = if head_rest.is_empty() {
            writer.write(body_rest)
        } else if body_rest.is_empty() {
            writer.write(head_rest)
        } else {
            writer.write_vectored(&[IoSlice::new(head_rest), IoSlice::new(body_rest)])
        };
        match written {
            Ok(0) => {
                return Err(io::Error::new(io::ErrorKind::WriteZero, "socket accepted 0 bytes"));
            }
            Ok(n) => *cursor += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(WriteProgress::Pending),
            Err(e) => return Err(e),
        }
    }
    Ok(WriteProgress::Complete)
}

/// Everything that frames one response besides the body bytes.
#[derive(Debug, Clone, Copy)]
pub struct ResponseHead<'a> {
    /// Status code ([`status_line`] supplies the reason phrase).
    pub status: u16,
    /// `Content-Type` value (omitted for 304s, which carry no body).
    pub content_type: &'a str,
    /// Whether to announce `Connection: keep-alive` or `close`.
    pub keep_alive: bool,
    /// Strong entity tag to emit as `ETag: "%016x"`, if any.
    pub etag: Option<u64>,
    /// Methods to announce in an `Allow` header (405 responses name what
    /// the route does accept).
    pub allow: Option<&'static str>,
    /// Whether the body bytes follow the head ([`BodyMode::HeaderOnly`]
    /// for `HEAD`).
    pub mode: BodyMode,
}

/// The per-connection response assembler: one reusable header scratch,
/// response heads built from static fragments, emitted together with the
/// body in a single vectored write. See the module docs.
#[derive(Debug, Default)]
pub struct ResponseBuf {
    head: Vec<u8>,
}

impl ResponseBuf {
    /// A fresh scratch (grows to steady-state size on first use, then
    /// never reallocates).
    #[must_use]
    pub fn new() -> ResponseBuf {
        ResponseBuf { head: Vec::with_capacity(256) }
    }

    /// Builds a `Content-Length`-delimited response head in the scratch
    /// **without writing** (for status 304, a headers-only head without
    /// `Content-Length`, per RFC 7232 — pass the 200 response's `etag` so
    /// the client can revalidate), returning how many of the `body_len`
    /// body bytes belong on the wire: 0 for `HEAD` ([`BodyMode`]) and
    /// 304, whose heads still carry the `GET` framing. The transport
    /// assembles once, then drains [`ResponseBuf::head_bytes`] + body via
    /// [`write_resumable`] across however many writable events it takes.
    pub fn assemble(&mut self, head: &ResponseHead<'_>, body_len: usize) -> usize {
        self.head.clear();
        self.head.extend_from_slice(status_line(head.status).as_bytes());
        if head.status != 304 {
            self.head.extend_from_slice(b"Content-Type: ");
            self.head.extend_from_slice(head.content_type.as_bytes());
            self.head.extend_from_slice(b"\r\nContent-Length: ");
            push_u64(&mut self.head, body_len as u64);
            self.head.extend_from_slice(b"\r\n");
        }
        if head.status == 503 {
            // Overload shedding: tell well-behaved clients when to retry
            // instead of letting them hammer a saturated server.
            self.head.extend_from_slice(b"Retry-After: 1\r\n");
        }
        if let Some(allow) = head.allow {
            self.head.extend_from_slice(b"Allow: ");
            self.head.extend_from_slice(allow.as_bytes());
            self.head.extend_from_slice(b"\r\n");
        }
        if let Some(etag) = head.etag {
            self.head.extend_from_slice(b"ETag: \"");
            self.head.extend_from_slice(&etag_hex(etag));
            self.head.extend_from_slice(b"\"\r\n");
        }
        self.head.extend_from_slice(if head.keep_alive {
            b"Connection: keep-alive\r\n\r\n".as_slice()
        } else {
            b"Connection: close\r\n\r\n".as_slice()
        });
        if head.status == 304 || head.mode == BodyMode::HeaderOnly {
            0
        } else {
            body_len
        }
    }

    /// Builds a `Transfer-Encoding: chunked` response head in the scratch
    /// (no `Content-Length` — the body's size is unknown when streaming
    /// begins). Returns whether chunk frames should follow
    /// (`false` for [`BodyMode::HeaderOnly`]: `HEAD` gets the streaming
    /// headers with no body, per RFC 7231).
    pub fn assemble_chunked(&mut self, head: &ResponseHead<'_>) -> bool {
        self.head.clear();
        self.head.extend_from_slice(status_line(head.status).as_bytes());
        self.head.extend_from_slice(b"Content-Type: ");
        self.head.extend_from_slice(head.content_type.as_bytes());
        self.head.extend_from_slice(b"\r\nTransfer-Encoding: chunked\r\n");
        self.head.extend_from_slice(if head.keep_alive {
            b"Connection: keep-alive\r\n\r\n".as_slice()
        } else {
            b"Connection: close\r\n\r\n".as_slice()
        });
        head.mode == BodyMode::Full
    }

    /// The head bytes built by the last [`ResponseBuf::assemble`].
    #[must_use]
    pub fn head_bytes(&self) -> &[u8] {
        &self.head
    }
}

/// Writes the chunked-transfer frame prefix for a `len`-byte chunk into
/// `out` (`{len:x}\r\n`); `len == 0` writes the terminal chunk *and*
/// trailer (`0\r\n\r\n`) — the end-of-stream marker. The caller appends
/// the chunk's closing `\r\n` to its payload buffer, so one chunk goes
/// out as a single two-slice vectored write: prefix + payload-with-CRLF.
pub fn chunk_prefix(len: usize, out: &mut Vec<u8>) {
    out.clear();
    if len == 0 {
        out.extend_from_slice(b"0\r\n\r\n");
        return;
    }
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut tmp = [0u8; 16];
    let mut at = tmp.len();
    let mut v = len;
    while v > 0 {
        at -= 1;
        tmp[at] = HEX[v & 0xF];
        v >>= 4;
    }
    out.extend_from_slice(&tmp[at..]);
    out.extend_from_slice(b"\r\n");
}

/// One plan's slot in a framed batch response: its frame header (a range
/// into [`BatchBody::frames`]) followed by its body — an `Arc` clone of
/// the cache entry, so assembling a batch never copies body bytes.
#[derive(Debug, Clone)]
pub struct BatchPart {
    /// This part's frame-header bytes within [`BatchBody::frames`].
    pub frame: Range<usize>,
    /// The encoded response body (shared with the response cache).
    pub body: Arc<[u8]>,
}

/// A framed multi-response body: every frame header lives in one reusable
/// scratch (`frames`, in wire order — batch header first, then one frame
/// per part) and bodies stay behind their `Arc`s. The wire stream is
/// `frames[header] · (frames[part.frame] · part.body)*`, emitted by
/// [`write_batch`] as a vectored write chain.
#[derive(Debug, Default)]
pub struct BatchBody {
    /// Batch header + per-part frame headers, contiguous, in wire order.
    pub frames: Vec<u8>,
    /// The leading batch-header bytes of `frames` (magic + plan count).
    pub header: Range<usize>,
    /// Per-plan frames and bodies, in request order.
    pub parts: Vec<BatchPart>,
}

impl BatchBody {
    /// Total bytes this body puts on the wire (the `Content-Length`).
    #[must_use]
    pub fn wire_len(&self) -> usize {
        self.header.len()
            + self.parts.iter().map(|part| part.frame.len() + part.body.len()).sum::<usize>()
    }

    /// Clears for reuse, keeping allocated capacity (the per-connection
    /// batch scratch's steady state).
    pub fn clear(&mut self) {
        self.frames.clear();
        self.header = 0..0;
        self.parts.clear();
    }
}

/// Writes `head` then a [`BatchBody`]'s pieces from `*cursor` (a byte
/// offset into the logical response stream), gathering up to 512 pieces
/// per `writev(2)` from a fixed stack array — a batch of 1000 plans
/// (2001 pieces) goes out in ~4 syscalls with zero heap traffic and zero
/// body copies.
///
/// Resumption contract matches [`write_resumable`]: `EINTR` retries in
/// place, `EAGAIN` parks the cursor mid-stream and returns
/// [`WriteProgress::Pending`] for the reactor to resume on the next
/// writable event.
///
/// # Errors
///
/// Propagates socket write failures; a zero-length write is reported as
/// [`io::ErrorKind::WriteZero`].
pub fn write_batch(
    writer: &mut impl Write,
    head: &[u8],
    batch: &BatchBody,
    cursor: &mut usize,
) -> io::Result<WriteProgress> {
    // Linux caps one writev at IOV_MAX = 1024 iovecs; 512 keeps the
    // stack array at 8 KiB while still draining a 1000-plan batch in a
    // handful of syscalls.
    const MAX_SLICES: usize = 512;

    /// Appends the unwritten suffix of `piece` (pieces wholly before the
    /// cursor are skipped; empty pieces never occupy a slot).
    fn gather<'a>(
        slices: &mut [IoSlice<'a>],
        count: &mut usize,
        at: &mut usize,
        cursor: usize,
        piece: &'a [u8],
    ) {
        if *count < slices.len() && *at + piece.len() > cursor {
            let skip = cursor.saturating_sub(*at);
            slices[*count] = IoSlice::new(&piece[skip..]);
            *count += 1;
        }
        *at += piece.len();
    }

    let total = head.len() + batch.wire_len();
    while *cursor < total {
        let mut slices = [IoSlice::new(&[][..]); MAX_SLICES];
        let mut count = 0;
        let mut at = 0;
        gather(&mut slices, &mut count, &mut at, *cursor, head);
        gather(&mut slices, &mut count, &mut at, *cursor, &batch.frames[batch.header.clone()]);
        for part in &batch.parts {
            if count == MAX_SLICES {
                break;
            }
            gather(&mut slices, &mut count, &mut at, *cursor, &batch.frames[part.frame.clone()]);
            gather(&mut slices, &mut count, &mut at, *cursor, &part.body);
        }
        match writer.write_vectored(&slices[..count]) {
            Ok(0) => {
                return Err(io::Error::new(io::ErrorKind::WriteZero, "socket accepted 0 bytes"));
            }
            Ok(n) => *cursor += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(WriteProgress::Pending),
            Err(e) => return Err(e),
        }
    }
    Ok(WriteProgress::Complete)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses every request out of `raw`, asserting the buffer drains.
    fn parse_all(raw: &str) -> Result<Vec<(String, String, bool, Option<String>)>, RequestError> {
        let mut reader = raw.as_bytes();
        let mut buf = RequestBuf::new();
        let mut out = Vec::new();
        loop {
            match buf.read_request(&mut reader) {
                Ok(request) => {
                    let parsed = (
                        request.method.to_string(),
                        request.target.to_string(),
                        request.keep_alive,
                        request.if_none_match.map(str::to_string),
                    );
                    let head_len = request.head_len;
                    out.push(parsed);
                    buf.consume(head_len);
                }
                Err(RequestError::ConnectionClosed) => return Ok(out),
                Err(e) => return Err(e),
            }
        }
    }

    fn parse(raw: &str) -> Result<(String, String, bool, Option<String>), RequestError> {
        parse_all(raw).map(|mut v| v.remove(0))
    }

    #[test]
    fn parses_get_with_query_and_keep_alive_defaults() {
        let (method, target, keep_alive, _) =
            parse("GET /v1/query?uarch=Skylake&port=5 HTTP/1.1\r\nHost: x\r\n\r\n").expect("parse");
        assert_eq!(method, "GET");
        assert_eq!(target, "/v1/query?uarch=Skylake&port=5");
        assert!(keep_alive, "HTTP/1.1 defaults to keep-alive");
        let (_, _, keep_alive, _) = parse("GET / HTTP/1.0\r\n\r\n").expect("parse");
        assert!(!keep_alive, "HTTP/1.0 defaults to close");
        let (_, _, keep_alive, _) =
            parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").expect("parse");
        assert!(keep_alive);
        let (_, _, keep_alive, _) =
            parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").expect("parse");
        assert!(!keep_alive);
    }

    #[test]
    fn path_and_query_split() {
        let raw = b"GET /v1/query?uarch=Skylake HTTP/1.1\r\n\r\n";
        let mut buf = RequestBuf::new();
        let request = buf.read_request(&mut raw.as_slice()).expect("parse");
        assert_eq!(request.path(), "/v1/query");
        assert_eq!(request.query(), "uarch=Skylake");
        let raw = b"GET /v1/stats HTTP/1.1\r\n\r\n";
        let mut buf = RequestBuf::new();
        let request = buf.read_request(&mut raw.as_slice()).expect("parse");
        assert_eq!(request.path(), "/v1/stats");
        assert_eq!(request.query(), "");
    }

    #[test]
    fn pipelined_requests_parse_in_sequence() {
        let requests = parse_all(
            "GET /a HTTP/1.1\r\n\r\nHEAD /b HTTP/1.1\r\nIf-None-Match: \"00000000000000aa\"\r\n\r\n\
             GET /c HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        .expect("parse");
        assert_eq!(requests.len(), 3);
        assert_eq!(requests[0].1, "/a");
        assert_eq!(requests[1].0, "HEAD");
        assert_eq!(requests[1].3.as_deref(), Some("\"00000000000000aa\""));
        assert!(!requests[2].2, "explicit close on the last request");
    }

    #[test]
    fn bare_lf_line_endings_are_accepted() {
        let (method, target, ..) = parse("GET /lf HTTP/1.1\nHost: x\n\n").expect("parse");
        assert_eq!((method.as_str(), target.as_str()), ("GET", "/lf"));
    }

    #[test]
    fn rejects_malformed_and_oversized() {
        assert!(matches!(parse_all(""), Ok(v) if v.is_empty()));
        assert!(matches!(parse("GARBAGE\r\n\r\n"), Err(RequestError::Bad(400, _))));
        assert!(matches!(parse("GET / HTTP/2\r\n\r\n"), Err(RequestError::Bad(505, _))));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nbad header\r\n\r\n"),
            Err(RequestError::Bad(400, _))
        ));
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE));
        assert!(matches!(parse(&long), Err(RequestError::Bad(431, _))));
        let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_HEAD));
        assert!(matches!(parse(&huge), Err(RequestError::Bad(431, _))));
        let many = format!("GET / HTTP/1.1\r\n{}\r\n", "X-H: 1\r\n".repeat(MAX_HEADERS + 1));
        assert!(matches!(parse(&many), Err(RequestError::Bad(431, _))));
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello"),
            Err(RequestError::Bad(400, _))
        ));
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(RequestError::Bad(400, _))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(RequestError::Bad(501, _))
        ));
        // Mid-head EOF.
        assert!(matches!(parse("GET / HTTP/1.1\r\nHost: x\r\n"), Err(RequestError::Bad(400, _))));
    }

    #[test]
    fn zero_content_length_is_accepted() {
        let (_, target, ..) = parse("GET / HTTP/1.1\r\nContent-Length: 0\r\n\r\n").expect("parse");
        assert_eq!(target, "/");
    }

    #[test]
    fn content_length_bodies_parse_and_read_with_pipelined_followups() {
        // Body arrives partly with the head (read-ahead) and partly on the
        // socket; a pipelined GET rides behind it.
        let raw = b"POST /v1/batch HTTP/1.1\r\nContent-Length: 11\r\n\r\nplan1\nplan2GET /after HTTP/1.1\r\n\r\n";
        let mut reader = raw.as_slice();
        let mut buf = RequestBuf::new();
        let request = buf.read_request(&mut reader).expect("parse");
        assert_eq!(request.method, "POST");
        assert_eq!(request.content_length, 11);
        let head_len = request.head_len;
        // As the transport does: take the read-ahead, then read the rest
        // off the socket.
        let mut body = Vec::new();
        let moved = buf.take_body(head_len, 11, &mut body);
        body.resize(11, 0);
        reader.read_exact(&mut body[moved..]).expect("body");
        assert_eq!(body, b"plan1\nplan2");
        let next = buf.read_request(&mut reader).expect("pipelined request survives the body");
        assert_eq!(next.target, "/after");
        assert_eq!(next.content_length, 0);
    }

    #[test]
    fn take_body_moves_only_buffered_bytes() {
        let raw = b"POST /p HTTP/1.1\r\nContent-Length: 8\r\n\r\nab";
        let mut buf = RequestBuf::new();
        let request = buf.read_request(&mut raw.as_slice()).expect("parse");
        let head_len = request.head_len;
        let mut body = Vec::new();
        let moved = buf.take_body(head_len, 8, &mut body);
        assert_eq!(moved, 2, "only the read-ahead moved; the rest comes off the socket");
        assert_eq!(body, b"ab");
        assert_eq!(buf.filled(), 0);
    }

    #[test]
    fn etag_matching_is_exact_list_aware_and_wildcard() {
        let etag = 0x00ab_cdef_0123_4567;
        let quoted = "\"00abcdef01234567\"";
        assert!(etag_matches(quoted, etag));
        assert!(etag_matches(&format!("\"other\", {quoted}"), etag));
        assert!(etag_matches(&format!("W/{quoted}"), etag), "weak compare for If-None-Match");
        assert!(etag_matches("*", etag));
        assert!(!etag_matches("\"00abcdef01234568\"", etag));
        assert!(!etag_matches("00abcdef01234567", etag), "unquoted tags never match");
        assert!(!etag_matches("", etag));
        assert_eq!(&etag_hex(etag), b"00abcdef01234567");
    }

    #[test]
    fn response_is_content_length_delimited_and_single_write() {
        /// Counts write calls to prove head+body coalesce into one
        /// vectored write.
        struct CountingWriter {
            out: Vec<u8>,
            calls: usize,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.calls += 1;
                self.out.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
                self.calls += 1;
                Ok(bufs
                    .iter()
                    .map(|b| {
                        self.out.extend_from_slice(b);
                        b.len()
                    })
                    .sum())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let mut writer = CountingWriter { out: Vec::new(), calls: 0 };
        let mut response = ResponseBuf::new();
        let body = b"{}\n";
        let emit = response.assemble(
            &ResponseHead {
                status: 200,
                content_type: "application/json",
                keep_alive: true,
                etag: Some(0xff),
                allow: None,
                mode: BodyMode::Full,
            },
            body.len(),
        );
        let mut cursor = 0;
        let progress =
            write_resumable(&mut writer, response.head_bytes(), &body[..emit], &mut cursor)
                .expect("write");
        assert_eq!(progress, WriteProgress::Complete);
        assert_eq!(writer.calls, 1, "head and body must go out in one vectored write");
        let text = String::from_utf8(writer.out).expect("utf-8");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("ETag: \"00000000000000ff\"\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}\n"));
    }

    /// The wire bytes of one response: the assembled head plus the body
    /// bytes it says to emit.
    fn framed(head: &ResponseHead<'_>, body: &[u8]) -> String {
        let mut response = ResponseBuf::new();
        let emit = response.assemble(head, body.len());
        let mut wire = response.head_bytes().to_vec();
        wire.extend_from_slice(&body[..emit]);
        String::from_utf8(wire).expect("utf-8")
    }

    #[test]
    fn head_mode_and_304_suppress_the_body() {
        let head = ResponseHead {
            status: 200,
            content_type: "application/json",
            keep_alive: true,
            etag: None,
            allow: None,
            mode: BodyMode::HeaderOnly,
        };
        let text = framed(&head, b"{}\n");
        assert!(text.contains("Content-Length: 3\r\n"), "HEAD keeps the GET Content-Length");
        assert!(text.ends_with("\r\n\r\n"), "no body bytes follow");

        let text = framed(
            &ResponseHead { status: 304, etag: Some(1), mode: BodyMode::Full, ..head },
            b"{}\n",
        );
        assert!(text.starts_with("HTTP/1.1 304 Not Modified\r\n"));
        assert!(!text.contains("Content-Length"), "304 has no body to delimit");
        assert!(text.contains("ETag: \"0000000000000001\"\r\n"));
        assert!(text.ends_with("\r\n\r\n"));
    }

    #[test]
    fn vectored_write_handles_short_writes() {
        /// A writer that accepts one byte per call.
        struct TrickleWriter(Vec<u8>);
        impl Write for TrickleWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf[0]);
                Ok(1)
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
                let first = bufs.iter().find(|b| !b.is_empty()).expect("non-empty");
                self.0.push(first[0]);
                Ok(1)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut writer = TrickleWriter(Vec::new());
        let mut cursor = 0;
        let progress = write_resumable(&mut writer, b"head|", b"body", &mut cursor).expect("write");
        assert_eq!(progress, WriteProgress::Complete);
        assert_eq!(writer.0, b"head|body");
    }

    /// A writer that accepts `burst` bytes, then answers `WouldBlock`
    /// until the "socket buffer" is drained — the userspace model of a
    /// full `SO_SNDBUF`.
    struct SaturatingWriter {
        out: Vec<u8>,
        burst: usize,
        accepted: usize,
    }

    impl SaturatingWriter {
        fn drain(&mut self) {
            self.accepted = 0;
        }
    }

    impl Write for SaturatingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let room = self.burst - self.accepted;
            if room == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "send buffer full"));
            }
            let n = room.min(buf.len());
            self.out.extend_from_slice(&buf[..n]);
            self.accepted += n;
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let first = bufs.iter().find(|b| !b.is_empty()).expect("non-empty");
            self.write(first)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn resumable_write_parks_on_wouldblock_and_resumes_mid_response() {
        let head = b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n";
        let body = b"body-data";
        // A 7-byte burst blocks mid-head; draining and retrying with the
        // same cursor must finish the exact byte stream, never duplicating
        // or dropping across the head/body seam.
        let mut writer = SaturatingWriter { out: Vec::new(), burst: 7, accepted: 0 };
        let mut cursor = 0;
        let mut rounds = 0;
        loop {
            match write_resumable(&mut writer, head, body, &mut cursor).expect("write") {
                WriteProgress::Complete => break,
                WriteProgress::Pending => {
                    assert!(cursor < head.len() + body.len());
                    writer.drain();
                    rounds += 1;
                }
            }
        }
        assert_eq!(cursor, head.len() + body.len());
        assert!(rounds >= 2, "the response must actually have been split up");
        let mut expected = head.to_vec();
        expected.extend_from_slice(body);
        assert_eq!(writer.out, expected);
    }

    #[test]
    fn resumable_write_retries_eintr_and_resumes_after_wouldblock() {
        /// Interrupted first, then blocks on every other call and takes
        /// one byte otherwise.
        struct FlakyWriter {
            out: Vec<u8>,
            calls: usize,
        }
        impl Write for FlakyWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.calls += 1;
                if self.calls % 2 == 0 {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "busy"));
                }
                if self.calls == 1 {
                    return Err(io::Error::new(io::ErrorKind::Interrupted, "signal"));
                }
                self.out.push(buf[0]);
                Ok(1)
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
                let first = bufs.iter().find(|b| !b.is_empty()).expect("non-empty");
                let first = [first[0]];
                self.write(&first)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut writer = FlakyWriter { out: Vec::new(), calls: 0 };
        let mut cursor = 0;
        // Each Pending is where the transport waits for the next
        // writable event.
        while write_resumable(&mut writer, b"he", b"llo", &mut cursor).expect("write")
            == WriteProgress::Pending
        {}
        assert_eq!(writer.out, b"hello");
    }

    #[test]
    fn lazy_request_buf_defers_its_allocation() {
        let buf = RequestBuf::lazy();
        assert_eq!(buf.filled(), 0);
        let mut buf = buf;
        let raw = b"GET /lazy HTTP/1.1\r\n\r\n";
        let request = buf.read_request(&mut raw.as_slice()).expect("parse");
        assert_eq!(request.target, "/lazy");
        let head_len = request.head_len;
        assert_eq!(buf.filled(), raw.len());
        buf.consume(head_len);
        assert_eq!(buf.filled(), 0);
    }

    /// A lazy buffer polled by a non-blocking transport must stay
    /// unallocated until the socket actually delivers a byte — the
    /// reactor drives every just-accepted connection through
    /// `read_request` once, and 10k parked connections must not each
    /// pay for (and fault in) a zeroed [`MAX_HEAD`] buffer.
    #[test]
    fn lazy_request_buf_survives_would_block_without_allocating() {
        struct NothingYet;
        impl Read for NothingYet {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::ErrorKind::WouldBlock.into())
            }
        }
        let mut buf = RequestBuf::lazy();
        for _ in 0..3 {
            match buf.read_request(&mut NothingYet) {
                Err(RequestError::Io(e)) if e.kind() == io::ErrorKind::WouldBlock => {}
                other => panic!("expected WouldBlock, got {other:?}"),
            }
            assert!(buf.buf.is_empty(), "an idle connection must not hold a head buffer");
            assert_eq!(buf.filled(), 0);
        }
        let raw = b"GET /later HTTP/1.1\r\n\r\n";
        let request = buf.read_request(&mut raw.as_slice()).expect("parse");
        assert_eq!(request.target, "/later");
    }

    #[test]
    fn assemble_reports_the_body_bytes_to_emit() {
        let head = ResponseHead {
            status: 200,
            content_type: "application/json",
            keep_alive: true,
            etag: Some(0xab),
            allow: None,
            mode: BodyMode::Full,
        };
        let mut staged = ResponseBuf::new();
        let emit = staged.assemble(&head, 3);
        assert_eq!(emit, 3);
        assert!(String::from_utf8_lossy(staged.head_bytes()).ends_with("\r\n\r\n"));

        // HEAD and 304 emit no body bytes but keep their heads.
        let emit = staged.assemble(&ResponseHead { mode: BodyMode::HeaderOnly, ..head }, 3);
        assert_eq!(emit, 0);
        assert!(String::from_utf8_lossy(staged.head_bytes()).contains("Content-Length: 3\r\n"));
        let emit = staged.assemble(&ResponseHead { status: 304, ..head }, 3);
        assert_eq!(emit, 0);
    }

    #[test]
    fn shed_responses_carry_retry_after() {
        let mut buf = ResponseBuf::new();
        let emit = buf.assemble(
            &ResponseHead {
                status: 503,
                content_type: "application/json",
                keep_alive: true,
                etag: None,
                allow: None,
                mode: BodyMode::Full,
            },
            2,
        );
        assert_eq!(emit, 2);
        let head = String::from_utf8_lossy(buf.head_bytes()).to_string();
        assert!(head.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{head}");
        assert!(head.contains("Retry-After: 1\r\n"), "{head}");
        assert!(head.contains("Content-Length: 2\r\n"), "{head}");
        // Non-shed statuses must not grow the header.
        let _ = buf.assemble(
            &ResponseHead {
                status: 200,
                content_type: "application/json",
                keep_alive: true,
                etag: None,
                allow: None,
                mode: BodyMode::Full,
            },
            2,
        );
        assert!(!String::from_utf8_lossy(buf.head_bytes()).contains("Retry-After"));
    }

    #[test]
    fn method_not_allowed_responses_carry_allow() {
        let mut buf = ResponseBuf::new();
        let emit = buf.assemble(
            &ResponseHead {
                status: 405,
                content_type: "application/json",
                keep_alive: true,
                etag: None,
                allow: Some("GET, HEAD"),
                mode: BodyMode::Full,
            },
            2,
        );
        assert_eq!(emit, 2);
        let head = String::from_utf8_lossy(buf.head_bytes()).to_string();
        assert!(head.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"), "{head}");
        assert!(head.contains("Allow: GET, HEAD\r\n"), "{head}");
    }

    #[test]
    fn chunked_head_announces_transfer_encoding_without_a_length() {
        let mut buf = ResponseBuf::new();
        let head = ResponseHead {
            status: 200,
            content_type: "application/json",
            keep_alive: true,
            etag: None,
            allow: None,
            mode: BodyMode::Full,
        };
        assert!(buf.assemble_chunked(&head));
        let text = String::from_utf8_lossy(buf.head_bytes()).to_string();
        assert!(text.contains("Transfer-Encoding: chunked\r\n"), "{text}");
        assert!(!text.contains("Content-Length"), "{text}");
        assert!(text.ends_with("Connection: keep-alive\r\n\r\n"), "{text}");
        assert!(
            !buf.assemble_chunked(&ResponseHead { mode: BodyMode::HeaderOnly, ..head }),
            "HEAD gets the streaming headers but no chunks"
        );
    }

    #[test]
    fn chunk_prefixes_are_hex_framed_and_zero_terminates() {
        let mut out = Vec::new();
        chunk_prefix(3, &mut out);
        assert_eq!(out, b"3\r\n");
        chunk_prefix(0x2f0, &mut out);
        assert_eq!(out, b"2f0\r\n");
        chunk_prefix(0, &mut out);
        assert_eq!(out, b"0\r\n\r\n", "terminal chunk includes the trailer");
    }

    /// A three-part batch whose middle body is empty (an error frame with
    /// no payload exercises the empty-piece path).
    fn sample_batch() -> BatchBody {
        let mut batch = BatchBody::default();
        batch.frames.extend_from_slice(b"UQM\x01\x03\x00\x00\x00");
        batch.header = 0..batch.frames.len();
        for (frame, body) in
            [(b"[f1]".as_slice(), b"body-one".as_slice()), (b"[f2]", b""), (b"[f3]", b"three")]
        {
            let start = batch.frames.len();
            batch.frames.extend_from_slice(frame);
            batch.parts.push(BatchPart { frame: start..batch.frames.len(), body: Arc::from(body) });
        }
        batch
    }

    fn batch_wire(head: &[u8], batch: &BatchBody) -> Vec<u8> {
        let mut expected = head.to_vec();
        expected.extend_from_slice(&batch.frames[batch.header.clone()]);
        for part in &batch.parts {
            expected.extend_from_slice(&batch.frames[part.frame.clone()]);
            expected.extend_from_slice(&part.body);
        }
        expected
    }

    #[test]
    fn batch_write_chains_every_piece_in_order() {
        let batch = sample_batch();
        let head = b"HTTP/1.1 200 OK\r\n\r\n";
        assert_eq!(batch.wire_len(), 8 + 4 + 8 + 4 + 4 + 5);
        let mut out = Vec::new();
        let mut cursor = 0;
        let progress = write_batch(&mut out, head, &batch, &mut cursor).expect("write");
        assert_eq!(progress, WriteProgress::Complete);
        assert_eq!(out, batch_wire(head, &batch));
    }

    #[test]
    fn batch_write_resumes_mid_piece_on_wouldblock() {
        let batch = sample_batch();
        let head = b"H|";
        let expected = batch_wire(head, &batch);
        // Drive the write 3 bytes per burst so WouldBlock lands inside
        // frames, bodies, and across piece seams.
        let mut writer = SaturatingWriter { out: Vec::new(), burst: 3, accepted: 0 };
        let mut cursor = 0;
        let mut rounds = 0;
        loop {
            match write_batch(&mut writer, head, &batch, &mut cursor).expect("write") {
                WriteProgress::Complete => break,
                WriteProgress::Pending => {
                    writer.drain();
                    rounds += 1;
                }
            }
        }
        assert_eq!(writer.out, expected);
        assert!(rounds >= 5, "the batch must actually have been split up");
    }

    #[test]
    fn batch_write_gathers_large_batches_across_several_writevs() {
        /// Records how many slices each vectored write received.
        struct GatherWriter {
            out: Vec<u8>,
            slice_counts: Vec<usize>,
        }
        impl Write for GatherWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.out.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
                self.slice_counts.push(bufs.len());
                Ok(bufs
                    .iter()
                    .map(|b| {
                        self.out.extend_from_slice(b);
                        b.len()
                    })
                    .sum())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut batch = BatchBody::default();
        batch.frames.extend_from_slice(b"UQM\x01");
        batch.header = 0..4;
        for i in 0..600u32 {
            let start = batch.frames.len();
            batch.frames.extend_from_slice(&i.to_le_bytes());
            batch.parts.push(BatchPart {
                frame: start..batch.frames.len(),
                body: Arc::from(format!("body-{i}").into_bytes().into_boxed_slice()),
            });
        }
        let expected = batch_wire(b"", &batch);
        let mut writer = GatherWriter { out: Vec::new(), slice_counts: Vec::new() };
        let mut cursor = 0;
        let progress = write_batch(&mut writer, b"", &batch, &mut cursor).expect("write");
        assert_eq!(progress, WriteProgress::Complete);
        assert_eq!(writer.out, expected);
        assert!(writer.slice_counts.len() >= 3, "1201 pieces can't fit one 512-slice writev");
        assert!(writer.slice_counts.iter().all(|&n| n <= 512));
    }
}
