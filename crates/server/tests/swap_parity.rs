//! Cached/uncached parity **across the swap boundary**: while the served
//! store swaps generations under concurrent readers, every response must
//! carry the bytes of one coherent generation — body, ETag, and
//! generation stamp all from the same snapshot of the world, never a
//! torn mix — on the service layer and over HTTP.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use uops_db::{
    BinaryEncoder, JsonEncoder, Query, QueryExec, QueryPlan, ResultEncoder, Segment, Snapshot,
    SortKey, VariantRecord, XmlEncoder,
};
use uops_serve::{respond, Encoding, QueryService, Server};

const MNEMONICS: [&str; 6] = ["ADD", "ADC", "SHLD", "VPADDD", "DIV", "MULPS"];
const VARIANTS: [&str; 3] = ["R64, R64", "XMM, XMM", "R64, M64"];
const EXTENSIONS: [&str; 3] = ["BASE", "AVX2", "AES"];
const UARCHES: [&str; 3] = ["Nehalem", "Haswell", "Skylake"];

fn arb_record() -> impl Strategy<Value = VariantRecord> {
    ((0usize..6, 0usize..3, 0usize..3, 0usize..3), (1u32..5, 1u16..0x100, 0.0f64..8.0)).prop_map(
        |((m, v, e, u), (uops, mask, tp))| VariantRecord {
            mnemonic: MNEMONICS[m].to_string(),
            variant: VARIANTS[v].to_string(),
            extension: EXTENSIONS[e].to_string(),
            uarch: UARCHES[u].to_string(),
            uop_count: uops,
            ports: vec![(mask, uops)],
            tp_measured: tp,
            ..Default::default()
        },
    )
}

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    prop::collection::vec(arb_record(), 1..16).prop_map(|records| {
        let mut snapshot = Snapshot::new("swap parity proptest");
        snapshot.records = records;
        snapshot
    })
}

fn arb_plan() -> impl Strategy<Value = QueryPlan> {
    (0usize..6, 0usize..3, 0usize..6, 0u8..10).prop_map(|(shape, u, m, port)| {
        let uarch = UARCHES[u];
        let mnemonic = MNEMONICS[m];
        match shape {
            0 => Query::new().into_plan(),
            1 => Query::new().uarch(uarch).into_plan(),
            2 => Query::new().uarch(uarch).uses_port(port).into_plan(),
            3 => Query::new().mnemonic(mnemonic).sort_by(SortKey::Latency).into_plan(),
            4 => Query::new().uarch(uarch).sort_by_desc(SortKey::Throughput).limit(3).into_plan(),
            _ => Query::new().extension("AVX2").offset(1).limit(2).into_plan(),
        }
    })
}

fn encode_expected(segment: &Segment, plan: &QueryPlan, encoding: Encoding) -> Vec<u8> {
    let db = segment.db();
    let result = QueryExec::new().run(plan, &db);
    match encoding {
        Encoding::Json => JsonEncoder.encode_result(&result),
        Encoding::Binary => BinaryEncoder.encode_result(&result),
        Encoding::Xml => XmlEncoder.encode_result(&result),
    }
}

/// The generation ladder: generation 0 is the base segment the service
/// boots on; each later generation merges in one more disjoint record so
/// every generation's full export is distinct.
fn generation_ladder(base: &Snapshot, rungs: usize) -> Vec<Arc<Segment>> {
    let mut ladder =
        vec![Arc::new(Segment::from_bytes(Segment::encode(base)).expect("base segment"))];
    for rung in 0..rungs {
        let mut extra = Snapshot::new("swap parity rung");
        extra.records.push(VariantRecord {
            mnemonic: format!("GEN{rung}"),
            variant: "R64, R64".into(),
            extension: "BASE".into(),
            uarch: "Skylake".into(),
            uop_count: 1 + rung as u32,
            ports: vec![(0b0000_0001, 1)],
            tp_measured: 1.0,
            ..Default::default()
        });
        let incoming = Segment::from_bytes(Segment::encode(&extra)).expect("rung segment");
        ladder.push(Arc::new(Segment::merge_refs(&[ladder.last().expect("rung"), &incoming])));
    }
    ladder
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Concurrent readers issue random plans through both cache tiers
    /// while a swapper walks the generation ladder. Every response must
    /// match the ground-truth bytes of **the generation it is stamped
    /// with** — a body from one generation with a stamp (or cache slot)
    /// from another is the torn mix this test exists to catch.
    #[test]
    fn swapping_generations_never_serves_torn_bytes(
        base in arb_snapshot(),
        plans in prop::collection::vec(arb_plan(), 1..6),
    ) {
        const GENERATIONS: usize = 4;
        let ladder = generation_ladder(&base, GENERATIONS);
        let service = QueryService::from_segment(Arc::clone(&ladder[0]), 1 << 20);

        let encodings = [Encoding::Json, Encoding::Binary, Encoding::Xml];
        // expected[g][plan][encoding]: ground truth per generation.
        let expected: Vec<Vec<Vec<Vec<u8>>>> = ladder
            .iter()
            .map(|segment| {
                plans
                    .iter()
                    .map(|plan| {
                        encodings.iter().map(|&e| encode_expected(segment, plan, e)).collect()
                    })
                    .collect()
            })
            .collect();

        const READERS: usize = 3;
        let done = AtomicBool::new(false);
        uops_pool::scope(|s| {
            for reader in 0..READERS {
                let service = &service;
                let plans = &plans;
                let expected = &expected;
                let done = &done;
                s.spawn(move || {
                    let mut round = 0usize;
                    while !done.load(Ordering::Relaxed) || round < 2 {
                        for i in 0..plans.len() {
                            let at = (i + reader + round) % plans.len();
                            for (e, &encoding) in encodings.iter().enumerate() {
                                let response = service.query(&plans[at], encoding);
                                assert_eq!(response.status, 200);
                                let generation = response.generation as usize;
                                assert!(
                                    generation < expected.len(),
                                    "stamp {generation} beyond the ladder",
                                );
                                assert_eq!(
                                    &*response.body, &expected[generation][at][e][..],
                                    "reader {reader} plan {at} {encoding:?}: body must match \
                                     the generation it is stamped with",
                                );
                            }
                        }
                        round += 1;
                    }
                });
            }
            // The swapper: walk the ladder while the readers hammer.
            for (id, segment) in ladder.iter().enumerate().skip(1) {
                assert!(service.swap_segment(Arc::clone(segment), id as u64));
                std::thread::yield_now();
            }
            done.store(true, Ordering::Relaxed);
        });

        // Settled: the final generation serves everywhere, cache included.
        prop_assert_eq!(service.generation(), GENERATIONS as u64);
        for (at, plan) in plans.iter().enumerate() {
            for (e, &encoding) in encodings.iter().enumerate() {
                let response = service.query(plan, encoding);
                prop_assert_eq!(response.generation, GENERATIONS as u64);
                prop_assert_eq!(&*response.body, &expected[GENERATIONS][at][e][..]);
            }
        }
    }

    /// Same contract through the raw fast lane: `respond` pins one
    /// generation per request, so the verbatim-target tier must never
    /// leak pre-swap bytes once the swap's epoch advance lands.
    #[test]
    fn raw_lane_respects_the_swap_boundary(
        base in arb_snapshot(),
        plans in prop::collection::vec(arb_plan(), 1..4),
    ) {
        let ladder = generation_ladder(&base, 2);
        let service = QueryService::from_segment(Arc::clone(&ladder[0]), 1 << 20);
        let targets: Vec<String> = plans
            .iter()
            .map(|plan| {
                let qs = plan.to_query_string();
                if qs.is_empty() {
                    "/v1/query?format=json".to_string()
                } else {
                    format!("/v1/query?{qs}&format=json")
                }
            })
            .collect();

        for (id, segment) in ladder.iter().enumerate() {
            if id > 0 {
                prop_assert!(service.swap_segment(Arc::clone(segment), id as u64));
            }
            for (at, target) in targets.iter().enumerate() {
                let expected = encode_expected(segment, &plans[at], Encoding::Json);
                // Miss (fills the raw tier at this epoch) then hit.
                let miss = respond(&service, "GET", target);
                let hit = respond(&service, "GET", target);
                prop_assert_eq!(miss.status, 200);
                prop_assert_eq!(
                    &*miss.body, &expected[..],
                    "generation {} target {}", id, target,
                );
                prop_assert_eq!(&*hit.body, &expected[..]);
                prop_assert_eq!(hit.generation, id as u64, "raw hits must carry their epoch");
            }
        }
    }
}

// ---- over HTTP ----

/// Reads one full `Connection: close` response off `stream`.
fn raw_get(addr: std::net::SocketAddr, target: &str) -> Vec<u8> {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    raw
}

fn split_response(raw: &[u8]) -> (String, Vec<u8>) {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .unwrap_or_else(|| panic!("no header terminator in {:?}", String::from_utf8_lossy(raw)));
    (String::from_utf8_lossy(&raw[..head_end]).to_string(), raw[head_end + 4..].to_vec())
}

fn etag_of(head: &str) -> u64 {
    let hex = head
        .lines()
        .find_map(|l| l.strip_prefix("ETag: \""))
        .and_then(|rest| rest.strip_suffix('"'))
        .unwrap_or_else(|| panic!("no ETag in {head}"));
    u64::from_str_radix(hex, 16).expect("hex etag")
}

/// Drives `server` (already spawned) through swaps under read load and
/// asserts every HTTP response is a coherent (body, ETag) pair from
/// exactly one generation.
fn swap_coherence_over_http(
    service: &Arc<QueryService>,
    addr: std::net::SocketAddr,
    ladder: &[Arc<Segment>],
) {
    const TARGET: &str = "/v1/query?format=json";
    // Ground truth per generation: body bytes + the ETag a service pinned
    // to that generation would emit (ETag = plan fingerprint ⊕ content
    // hash, so a reference service over the same segment reproduces it).
    let truth: Vec<(Vec<u8>, u64)> = ladder
        .iter()
        .map(|segment| {
            let reference = QueryService::from_segment(Arc::clone(segment), 0);
            let response = respond(&reference, "GET", TARGET);
            assert_eq!(response.status, 200);
            (response.body.to_vec(), response.etag.expect("cacheable response has an ETag"))
        })
        .collect();

    let stop = AtomicBool::new(false);
    uops_pool::scope(|s| {
        for _reader in 0..2 {
            let stop = &stop;
            let truth = &truth;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let raw = raw_get(addr, TARGET);
                    let (head, body) = split_response(&raw);
                    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
                    let etag = etag_of(&head);
                    let matched = truth
                        .iter()
                        .enumerate()
                        .find(|(_, (expected, _))| expected[..] == body[..]);
                    let (generation, (_, expected_etag)) =
                        matched.expect("body must match some coherent generation");
                    assert_eq!(
                        etag, *expected_etag,
                        "ETag must come from the same generation ({generation}) as the body",
                    );
                }
            });
        }
        for (id, segment) in ladder.iter().enumerate().skip(1) {
            assert!(service.swap_segment(Arc::clone(segment), id as u64));
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        stop.store(true, Ordering::Relaxed);
    });

    // Settled on the last generation.
    let raw = raw_get(addr, TARGET);
    let (head, body) = split_response(&raw);
    let last = truth.last().expect("ladder");
    assert_eq!(body[..], last.0[..], "after the last swap only the new generation serves");
    assert_eq!(etag_of(&head), last.1);
}

fn http_base() -> Snapshot {
    let mut base = Snapshot::new("swap parity http");
    base.records.push(VariantRecord {
        mnemonic: "ADD".into(),
        variant: "R64, R64".into(),
        extension: "BASE".into(),
        uarch: "Skylake".into(),
        uop_count: 1,
        ports: vec![(0b0110_0011, 1)],
        tp_measured: 0.25,
        ..Default::default()
    });
    base
}

#[test]
fn swaps_are_coherent_on_the_reactor_transport() {
    let ladder = generation_ladder(&http_base(), 5);
    let service = Arc::new(QueryService::from_segment(Arc::clone(&ladder[0]), 1 << 20));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service), 2).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();
    swap_coherence_over_http(&service, addr, &ladder);
    handle.shutdown();
}
