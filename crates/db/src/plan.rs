//! The canonical query plan: the hashable, wire-codable form of a query.
//!
//! A [`QueryPlan`] is what a [`crate::Query`] builds and what every layer
//! above the database speaks: it is simultaneously
//!
//! * the **execution request** handed to [`crate::QueryExec`],
//! * the **cache key** — plans are `Eq + Hash` with a stable 64-bit
//!   [`QueryPlan::fingerprint`] over their canonical encoding, and
//! * the **wire request** — [`QueryPlan::to_query_string`] /
//!   [`QueryPlan::parse`] round-trip a plan through an HTTP-style query
//!   string (`uarch=Skylake&port=5&sort=latency&limit=10`).
//!
//! Canonicalization makes semantically equal requests collide in a cache:
//! keys are emitted in one fixed order, default values (offset 0, ascending
//! mnemonic sort, no limit) are omitted, floats use shortest round-trip
//! formatting, and `-0.0` bounds are normalized to `0.0`. Parsing is strict
//! — unknown or duplicate keys are rejected, not skipped — so a cache can
//! never serve one request's bytes for a differently spelled one.

use std::fmt::Write as _;
use std::hash::{Hash, Hasher};

use crate::error::DbError;

/// Sort orders for query results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SortKey {
    /// By mnemonic, then variant, then microarchitecture (the default).
    #[default]
    Mnemonic,
    /// By maximum latency (records without latency data sort first).
    Latency,
    /// By measured throughput.
    Throughput,
    /// By µop count.
    UopCount,
}

impl SortKey {
    /// The canonical wire spelling of this sort key.
    #[must_use]
    pub fn wire_name(self) -> &'static str {
        match self {
            SortKey::Mnemonic => "mnemonic",
            SortKey::Latency => "latency",
            SortKey::Throughput => "throughput",
            SortKey::UopCount => "uops",
        }
    }

    /// Parses the canonical wire spelling.
    #[must_use]
    pub fn from_wire_name(s: &str) -> Option<SortKey> {
        match s {
            "mnemonic" => Some(SortKey::Mnemonic),
            "latency" => Some(SortKey::Latency),
            "throughput" => Some(SortKey::Throughput),
            "uops" => Some(SortKey::UopCount),
            _ => None,
        }
    }
}

/// A canonical, hashable query: normalized filters, sort order, and
/// pagination. See the module docs for the canonicalization rules.
///
/// Plans are built through the source-compatible [`crate::Query`] builder
/// (or parsed off the wire) and executed by [`crate::QueryExec`].
#[must_use]
#[derive(Debug, Clone, Default)]
pub struct QueryPlan {
    pub(crate) mnemonic: Option<String>,
    pub(crate) mnemonic_prefix: Option<String>,
    pub(crate) extension: Option<String>,
    pub(crate) uarch: Option<String>,
    pub(crate) port: Option<u8>,
    pub(crate) min_uops: Option<u32>,
    pub(crate) max_uops: Option<u32>,
    pub(crate) min_latency: Option<f64>,
    pub(crate) max_latency: Option<f64>,
    pub(crate) sort: SortKey,
    pub(crate) descending: bool,
    pub(crate) offset: usize,
    pub(crate) limit: Option<usize>,
}

/// `-0.0` and `0.0` are the same bound; collapse them so equal plans hash
/// equally.
pub(crate) fn normalize_bound(v: f64) -> f64 {
    if v == 0.0 {
        0.0
    } else {
        v
    }
}

fn bound_bits(v: Option<f64>) -> Option<u64> {
    v.map(|v| normalize_bound(v).to_bits())
}

impl PartialEq for QueryPlan {
    fn eq(&self, other: &QueryPlan) -> bool {
        self.mnemonic == other.mnemonic
            && self.mnemonic_prefix == other.mnemonic_prefix
            && self.extension == other.extension
            && self.uarch == other.uarch
            && self.port == other.port
            && self.min_uops == other.min_uops
            && self.max_uops == other.max_uops
            && bound_bits(self.min_latency) == bound_bits(other.min_latency)
            && bound_bits(self.max_latency) == bound_bits(other.max_latency)
            && self.sort == other.sort
            && self.descending == other.descending
            && self.offset == other.offset
            && self.limit == other.limit
    }
}

impl Eq for QueryPlan {}

impl Hash for QueryPlan {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.mnemonic.hash(state);
        self.mnemonic_prefix.hash(state);
        self.extension.hash(state);
        self.uarch.hash(state);
        self.port.hash(state);
        self.min_uops.hash(state);
        self.max_uops.hash(state);
        bound_bits(self.min_latency).hash(state);
        bound_bits(self.max_latency).hash(state);
        self.sort.hash(state);
        self.descending.hash(state);
        self.offset.hash(state);
        self.limit.hash(state);
    }
}

impl QueryPlan {
    /// An unconstrained plan (matches everything, canonical sort).
    pub fn new() -> QueryPlan {
        QueryPlan::default()
    }

    /// The exact-mnemonic filter, if set.
    #[must_use]
    pub fn mnemonic(&self) -> Option<&str> {
        self.mnemonic.as_deref()
    }

    /// The mnemonic-prefix filter, if set.
    #[must_use]
    pub fn mnemonic_prefix(&self) -> Option<&str> {
        self.mnemonic_prefix.as_deref()
    }

    /// The ISA-extension filter, if set.
    #[must_use]
    pub fn extension(&self) -> Option<&str> {
        self.extension.as_deref()
    }

    /// The microarchitecture filter, if set.
    #[must_use]
    pub fn uarch(&self) -> Option<&str> {
        self.uarch.as_deref()
    }

    /// The port filter, if set.
    #[must_use]
    pub fn port(&self) -> Option<u8> {
        self.port
    }

    /// The sort key.
    #[must_use]
    pub fn sort(&self) -> SortKey {
        self.sort
    }

    /// Whether results are sorted descending.
    #[must_use]
    pub fn descending(&self) -> bool {
        self.descending
    }

    /// The pagination offset.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The pagination limit, if set.
    #[must_use]
    pub fn limit(&self) -> Option<usize> {
        self.limit
    }

    /// Serializes the plan as its canonical query string.
    ///
    /// Keys appear in one fixed order, unset filters and default values are
    /// omitted, and values are percent-encoded, so two equal plans always
    /// produce byte-identical strings — the property the response cache and
    /// the wire protocol share. The empty plan serializes to `""`.
    #[must_use]
    pub fn to_query_string(&self) -> String {
        let mut out = String::new();
        self.push_query_string(&mut out);
        out
    }

    /// Appends the canonical query string to `out` — the allocation-free
    /// counterpart of [`QueryPlan::to_query_string`] for callers that
    /// build cache keys into a reusable buffer (the batch endpoint).
    pub fn push_query_string(&self, out: &mut String) {
        let mut first = true;
        let mut push = |key: &str, value: &dyn Fn(&mut String)| {
            if !std::mem::take(&mut first) {
                out.push('&');
            }
            out.push_str(key);
            out.push('=');
            value(out);
        };
        if let Some(v) = &self.mnemonic {
            push("mnemonic", &|out| encode_component_into(out, v));
        }
        if let Some(v) = &self.mnemonic_prefix {
            push("prefix", &|out| encode_component_into(out, v));
        }
        if let Some(v) = &self.extension {
            push("extension", &|out| encode_component_into(out, v));
        }
        if let Some(v) = &self.uarch {
            push("uarch", &|out| encode_component_into(out, v));
        }
        if let Some(v) = self.port {
            push("port", &|out| {
                let _ = write!(out, "{v}");
            });
        }
        if let Some(v) = self.min_uops {
            push("min_uops", &|out| {
                let _ = write!(out, "{v}");
            });
        }
        if let Some(v) = self.max_uops {
            push("max_uops", &|out| {
                let _ = write!(out, "{v}");
            });
        }
        if let Some(v) = self.min_latency {
            push("min_latency", &|out| {
                let _ = write!(out, "{}", normalize_bound(v));
            });
        }
        if let Some(v) = self.max_latency {
            push("max_latency", &|out| {
                let _ = write!(out, "{}", normalize_bound(v));
            });
        }
        if self.sort != SortKey::Mnemonic {
            push("sort", &|out| out.push_str(self.sort.wire_name()));
        }
        if self.descending {
            push("desc", &|out| out.push('1'));
        }
        if self.offset != 0 {
            push("offset", &|out| {
                let _ = write!(out, "{}", self.offset);
            });
        }
        if let Some(v) = self.limit {
            push("limit", &|out| {
                let _ = write!(out, "{v}");
            });
        }
    }

    /// A stable 64-bit fingerprint of the canonical encoding — the response
    /// cache key. Equal plans fingerprint equally across processes and
    /// executions (unlike `std` hashing, which is randomly seeded).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fnv1a_64(self.to_query_string().as_bytes())
    }

    /// Parses a plan from a query string (`uarch=Skylake&port=5`). Keys may
    /// appear in any order; percent-encoding and `+`-for-space are decoded.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Plan`] for unknown keys, duplicate keys, and
    /// malformed values. Strictness is deliberate: a misspelled filter that
    /// was silently ignored would return (and cache) the wrong result set.
    pub fn parse(query_string: &str) -> Result<QueryPlan, DbError> {
        QueryPlan::from_pairs(parse_query_pairs(query_string)?)
    }

    /// Builds a plan from decoded key/value pairs (see [`QueryPlan::parse`]).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Plan`] for unknown keys, duplicate keys, and
    /// malformed values.
    pub fn from_pairs(
        pairs: impl IntoIterator<Item = (String, String)>,
    ) -> Result<QueryPlan, DbError> {
        let mut plan = QueryPlan::default();
        // Duplicate detection as a bitmask over the fixed key set — no
        // allocation, no string comparisons against already-seen keys
        // (this runs on the uncached hot path of every transport).
        let mut seen: u16 = 0;
        for (key, value) in pairs {
            let bit: u16 = match key.as_str() {
                "mnemonic" => 1 << 0,
                "prefix" => 1 << 1,
                "extension" => 1 << 2,
                "uarch" => 1 << 3,
                "port" => 1 << 4,
                "min_uops" => 1 << 5,
                "max_uops" => 1 << 6,
                "min_latency" => 1 << 7,
                "max_latency" => 1 << 8,
                "sort" => 1 << 9,
                "desc" => 1 << 10,
                "offset" => 1 << 11,
                "limit" => 1 << 12,
                other => return Err(plan_error(format!("unknown query parameter {other:?}"))),
            };
            if seen & bit != 0 {
                return Err(plan_error(format!("duplicate query parameter {key:?}")));
            }
            seen |= bit;
            match key.as_str() {
                "mnemonic" => plan.mnemonic = Some(value),
                "prefix" => plan.mnemonic_prefix = Some(value),
                "extension" => plan.extension = Some(value),
                "uarch" => plan.uarch = Some(value),
                "port" => plan.port = Some(parse_number(&key, &value)?),
                "min_uops" => plan.min_uops = Some(parse_number(&key, &value)?),
                "max_uops" => plan.max_uops = Some(parse_number(&key, &value)?),
                "min_latency" => {
                    plan.min_latency = Some(normalize_bound(parse_number(&key, &value)?));
                }
                "max_latency" => {
                    plan.max_latency = Some(normalize_bound(parse_number(&key, &value)?));
                }
                "sort" => {
                    plan.sort = SortKey::from_wire_name(&value).ok_or_else(|| {
                        plan_error(format!(
                            "unknown sort {value:?} (expected mnemonic|latency|throughput|uops)"
                        ))
                    })?;
                }
                "desc" => {
                    plan.descending = match value.as_str() {
                        "1" | "true" => true,
                        "0" | "false" => false,
                        other => {
                            return Err(plan_error(format!("invalid desc value {other:?}")));
                        }
                    };
                }
                "offset" => plan.offset = parse_number(&key, &value)?,
                "limit" => plan.limit = Some(parse_number(&key, &value)?),
                _ => unreachable!("the bit match above rejected unknown keys"),
            }
        }
        Ok(plan)
    }
}

fn plan_error(message: String) -> DbError {
    DbError::Plan { message }
}

fn parse_number<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, DbError> {
    value.parse().map_err(|_| plan_error(format!("invalid value {value:?} for {key}")))
}

/// Splits a query string into percent-decoded `(key, value)` pairs.
///
/// # Errors
///
/// Returns [`DbError::Plan`] on malformed percent-escapes or pairs without
/// an `=`.
pub fn parse_query_pairs(query_string: &str) -> Result<Vec<(String, String)>, DbError> {
    if query_string.is_empty() {
        return Ok(Vec::new());
    }
    // Exact-size allocation: one `&`-separated pair per slot.
    let mut pairs = Vec::with_capacity(query_string.bytes().filter(|&b| b == b'&').count() + 1);
    for pair in query_string.split('&') {
        let Some((key, value)) = pair.split_once('=') else {
            return Err(plan_error(format!("query parameter {pair:?} has no '='")));
        };
        pairs.push((decode_component(key)?, decode_component(value)?));
    }
    Ok(pairs)
}

/// Percent-encodes `s` into `out`, leaving RFC 3986 unreserved characters
/// as-is.
pub(crate) fn encode_component_into(out: &mut String, s: &str) {
    for &byte in s.as_bytes() {
        match byte {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(byte as char);
            }
            _ => {
                let _ = write!(out, "%{byte:02X}");
            }
        }
    }
}

/// Percent-encodes `s` (see [`decode_component`] for the inverse).
#[must_use]
pub fn encode_component(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    encode_component_into(&mut out, s);
    out
}

/// Percent-decodes one query-string component (`%XX` escapes and `+` for
/// space).
///
/// # Errors
///
/// Returns [`DbError::Plan`] on truncated or non-hex escapes and on decoded
/// bytes that are not valid UTF-8.
pub fn decode_component(s: &str) -> Result<String, DbError> {
    let bytes = s.as_bytes();
    // Fast path: nothing to decode — one memcpy instead of a per-byte
    // push loop (the overwhelmingly common case for canonical spellings).
    if !bytes.iter().any(|&b| b == b'%' || b == b'+') {
        return Ok(s.to_string());
    }
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                    .ok_or_else(|| plan_error(format!("bad percent-escape in {s:?}")))?;
                out.push(hex);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            byte => {
                out.push(byte);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| plan_error(format!("invalid UTF-8 after decoding {s:?}")))
}

/// FNV-1a's 64-bit offset basis: the hash of the empty input.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV's 64-bit prime.
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash: tiny, dependency-free, and stable across processes —
/// what the canonical plan fingerprint and the response-cache keys use.
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// [`fnv1a_64`] over the logical concatenation of `parts`, byte-identical
/// to hashing the joined slice — lets a caller key on a composite string
/// (prefix + encoding + plan) without materializing it.
#[must_use]
pub fn fnv1a_64_parts(parts: &[&[u8]]) -> u64 {
    parts.iter().fold(FNV_OFFSET, |hash, part| fnv1a_extend(hash, part))
}

/// Continues an FNV-1a hash `hash` over `bytes`: one xor and one multiply
/// per byte.
#[inline]
pub(crate) fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Query;

    #[test]
    fn canonical_string_omits_defaults() {
        assert_eq!(QueryPlan::new().to_query_string(), "");
        let plan = Query::new().uarch("Skylake").uses_port(5).into_plan();
        assert_eq!(plan.to_query_string(), "uarch=Skylake&port=5");
        let plan = Query::new()
            .mnemonic("ADD")
            .sort_by_desc(SortKey::Latency)
            .offset(10)
            .limit(5)
            .into_plan();
        assert_eq!(plan.to_query_string(), "mnemonic=ADD&sort=latency&desc=1&offset=10&limit=5");
    }

    #[test]
    fn wire_roundtrip_preserves_equality_and_fingerprint() {
        let plans = [
            QueryPlan::new(),
            Query::new().uarch("Coffee Lake").extension("AVX2").into_plan(),
            Query::new().mnemonic_prefix("VP").min_uops(2).max_uops(9).into_plan(),
            Query::new().min_latency(0.5).max_latency(23.25).sort_by(SortKey::UopCount).into_plan(),
            Query::new().uses_port(15).sort_by_desc(SortKey::Throughput).limit(1).into_plan(),
        ];
        for plan in plans {
            let wire = plan.to_query_string();
            let parsed = QueryPlan::parse(&wire).expect("canonical string must parse");
            assert_eq!(parsed, plan, "{wire}");
            assert_eq!(parsed.fingerprint(), plan.fingerprint());
            assert_eq!(parsed.to_query_string(), wire, "canonical form is a fixed point");
        }
    }

    #[test]
    fn parse_accepts_any_key_order_and_escapes() {
        let a = QueryPlan::parse("port=5&uarch=Coffee%20Lake").expect("parse");
        let b = QueryPlan::parse("uarch=Coffee+Lake&port=5").expect("parse");
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.uarch(), Some("Coffee Lake"));
        assert_eq!(a.to_query_string(), "uarch=Coffee%20Lake&port=5");
    }

    #[test]
    fn parse_rejects_unknown_duplicate_and_malformed() {
        assert!(QueryPlan::parse("uarhc=Skylake").is_err(), "unknown key");
        assert!(QueryPlan::parse("port=5&port=5").is_err(), "duplicate key");
        assert!(QueryPlan::parse("port=five").is_err(), "bad number");
        assert!(QueryPlan::parse("sort=size").is_err(), "bad sort");
        assert!(QueryPlan::parse("desc=maybe").is_err(), "bad bool");
        assert!(QueryPlan::parse("uarch").is_err(), "missing =");
        assert!(QueryPlan::parse("uarch=%zz").is_err(), "bad escape");
        let err = QueryPlan::parse("flavor=spicy").unwrap_err();
        assert!(matches!(err, DbError::Plan { .. }), "{err}");
    }

    #[test]
    fn negative_zero_bounds_are_normalized() {
        let a = Query::new().min_latency(0.0).into_plan();
        let b = Query::new().min_latency(-0.0).into_plan();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(b.to_query_string(), "min_latency=0");
    }

    #[test]
    fn hash_agrees_with_equality() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Query::new().uarch("Skylake").into_plan());
        assert!(set.contains(&Query::new().uarch("Skylake").into_plan()));
        assert!(!set.contains(&Query::new().uarch("Haswell").into_plan()));
    }

    #[test]
    fn fingerprint_is_stable() {
        // Guards the on-the-wire/cache-key contract: changing the canonical
        // encoding is a breaking change and must show up here.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(QueryPlan::new().fingerprint(), 0xcbf2_9ce4_8422_2325);
        let plan = Query::new().uarch("Skylake").uses_port(5).into_plan();
        assert_eq!(plan.fingerprint(), fnv1a_64(b"uarch=Skylake&port=5"));
    }

    #[test]
    fn component_coding_roundtrips() {
        for s in ["", "plain", "has space", "µops & ports=fun", "100%"] {
            assert_eq!(decode_component(&encode_component(s)).expect("decode"), s);
        }
        assert!(decode_component("%").is_err());
        assert!(decode_component("%f").is_err());
        assert!(decode_component("%ff").is_err(), "0xff alone is not UTF-8");
    }
}
