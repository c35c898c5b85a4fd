//! Property-based tests (proptest) on the core data structures and
//! invariants: the LP solver, port sets, flag sets, registers, the catalog's
//! XML roundtrip, code sequences, the simulator's counters, and the
//! `uops-db` snapshot encodings.

use proptest::prelude::*;

use uops_info::db::{LatencyEdge, Snapshot, UarchMeta, VariantRecord};
use uops_info::isa::{Flag, FlagSet};
use uops_info::lp::{min_max_load, min_max_load_by_flow, optimal_assignment, PortUsageMap};
use uops_info::prelude::*;

// ---------------------------------------------------------------------------
// LP solver
// ---------------------------------------------------------------------------

/// Strategy: a random port usage over 8 ports with 1–5 combinations.
fn arb_port_usage() -> impl Strategy<Value = PortUsageMap> {
    prop::collection::vec((1u16..=0xff, 1u32..=4), 1..5).prop_map(|entries| {
        let mut map = PortUsageMap::new();
        for (mask, count) in entries {
            *map.entry(mask).or_insert(0.0) += f64::from(count);
        }
        map
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The exact subset-formula solver and the flow-based solver agree.
    #[test]
    fn lp_solvers_agree(usage in arb_port_usage()) {
        let exact = min_max_load(&usage, 0xff);
        let flow = min_max_load_by_flow(&usage, 0xff);
        prop_assert!((exact - flow).abs() < 1e-6, "exact {exact} vs flow {flow}");
    }

    /// The optimum respects the trivial lower bounds: total/µops divided by
    /// the number of ports, and the load of any single-port combination.
    #[test]
    fn lp_optimum_respects_lower_bounds(usage in arb_port_usage()) {
        let z = min_max_load(&usage, 0xff);
        let total: f64 = usage.values().sum();
        prop_assert!(z >= total / 8.0 - 1e-9);
        for (&mask, &count) in &usage {
            prop_assert!(z >= count / f64::from(mask.count_ones()) - 1e-9);
        }
        // And it is never larger than putting everything on one port.
        prop_assert!(z <= total + 1e-9);
    }

    /// The explicit assignment produced by `optimal_assignment` is a valid
    /// fractional schedule: shares are non-negative, sum to the µop counts,
    /// and only use allowed ports.
    #[test]
    fn lp_assignment_is_valid(usage in arb_port_usage()) {
        let a = optimal_assignment(&usage, 0xff);
        for ((mask, port), share) in &a.shares {
            prop_assert!(*share >= -1e-12);
            prop_assert!(mask & (1 << port) != 0);
        }
        for (&mask, &count) in &usage {
            let sum: f64 = a.shares.iter().filter(|((m, _), _)| *m == mask).map(|(_, s)| *s).sum();
            prop_assert!((sum - count).abs() < 1e-9);
        }
        prop_assert!(a.achieved_max_load + 1e-9 >= a.bottleneck);
    }
}

// ---------------------------------------------------------------------------
// Port sets and flag sets
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// PortSet display/parse roundtrip.
    #[test]
    fn portset_roundtrip(ports in prop::collection::btree_set(0u8..10, 1..6)) {
        let set: PortSet = ports.iter().copied().collect();
        let parsed = PortSet::parse(&set.to_string()).expect("parse");
        prop_assert_eq!(parsed, set);
        prop_assert_eq!(set.len() as usize, ports.len());
        for p in ports {
            prop_assert!(set.contains(p));
        }
    }

    /// Subset relations are consistent with the union.
    #[test]
    fn portset_subset_union(a in prop::collection::btree_set(0u8..10, 0..5),
                            b in prop::collection::btree_set(0u8..10, 0..5)) {
        let sa: PortSet = a.iter().copied().collect();
        let sb: PortSet = b.iter().copied().collect();
        let union = sa | sb;
        prop_assert!(sa.is_subset_of(union));
        prop_assert!(sb.is_subset_of(union));
        prop_assert_eq!(sa.is_strict_subset_of(sb), sa.is_subset_of(sb) && sa != sb);
        prop_assert_eq!((sa & sb).is_subset_of(sa), true);
    }

    /// FlagSet operations behave like ordinary set operations.
    #[test]
    fn flagset_operations(bits_a in 0u8..64, bits_b in 0u8..64) {
        let pick = |bits: u8| -> FlagSet {
            Flag::ALL
                .into_iter()
                .enumerate()
                .filter(|(i, _)| bits & (1 << i) != 0)
                .map(|(_, f)| f)
                .collect()
        };
        let a = pick(bits_a);
        let b = pick(bits_b);
        let union = a | b;
        let inter = a & b;
        for f in Flag::ALL {
            prop_assert_eq!(union.contains(f), a.contains(f) || b.contains(f));
            prop_assert_eq!(inter.contains(f), a.contains(f) && b.contains(f));
            prop_assert_eq!((a - b).contains(f), a.contains(f) && !b.contains(f));
            prop_assert_eq!((!a).contains(f), !a.contains(f));
        }
        prop_assert!(inter.is_subset_of(a) && inter.is_subset_of(b));
        prop_assert!(a.is_subset_of(union));
    }

    /// Register name/parse roundtrip over all files and widths.
    #[test]
    fn register_name_roundtrip(file in 0u8..3, index in 0u8..16, width_sel in 0u8..4) {
        let reg = match file {
            0 => {
                let width = [Width::W8, Width::W16, Width::W32, Width::W64][width_sel as usize];
                Register::gpr(index, width)
            }
            1 => {
                let width = if width_sel % 2 == 0 { Width::W128 } else { Width::W256 };
                Register::vec(index, width)
            }
            _ => Register::mmx(index % 8),
        };
        let parsed = Register::from_name(&reg.name()).expect("roundtrip");
        prop_assert_eq!(parsed, reg);
    }
}

// ---------------------------------------------------------------------------
// Catalog, code sequences, and the simulator
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Port-usage notation roundtrip for random usages.
    #[test]
    fn port_usage_notation_roundtrip(entries in prop::collection::vec(
        (prop::collection::btree_set(0u8..8, 1..4), 1u32..4), 1..4)) {
        let usage = PortUsage::from_entries(
            entries
                .into_iter()
                .map(|(ports, n)| (ports.into_iter().collect::<PortSet>(), n))
                .collect(),
        );
        let parsed = PortUsage::parse(&usage.to_string()).expect("parse");
        prop_assert_eq!(parsed, usage);
    }

    /// Repeating a code sequence scales the simulator's µop counters
    /// proportionally and never decreases the cycle count.
    #[test]
    fn simulator_counters_scale_with_repetition(n_instr in 1usize..6, reps in 2usize..5) {
        let catalog = Catalog::intel_core();
        let desc = variant_arc(&catalog, "ADD", "R64, R64").unwrap();
        let mut pool = RegisterPool::new();
        let copies = uops_info::core_::codegen::independent_copies(&desc, n_instr, &mut pool).unwrap();
        let seq: CodeSequence = copies.into_iter().collect();
        let sim = Pipeline::new(MicroArch::Skylake);
        let once = sim.execute(&seq);
        let repeated = sim.execute(&seq.repeat(reps));
        let overhead = 6u64;
        prop_assert_eq!(
            (repeated.uops_total - overhead),
            (once.uops_total - overhead) * reps as u64
        );
        prop_assert!(repeated.core_cycles >= once.core_cycles);
        prop_assert_eq!(repeated.instructions_retired, once.instructions_retired * reps as u64);
    }

    /// The measurement harness reports per-iteration values that are
    /// independent of the unroll configuration (within tolerance).
    #[test]
    fn measurement_is_unroll_invariant(base in 4usize..8, extra in 20usize..40) {
        let catalog = Catalog::intel_core();
        let desc = variant_arc(&catalog, "PADDD", "XMM, XMM").unwrap();
        let mut pool = RegisterPool::new();
        let inst = Inst::bind(&desc, &std::collections::BTreeMap::new(), &mut pool).unwrap();
        let mut seq = CodeSequence::new();
        seq.push(inst);
        let backend = SimBackend::new(MicroArch::Haswell);
        let cfg_a = MeasurementConfig { base_unroll: base, large_unroll: base + extra, repetitions: 1, warmup: false };
        let cfg_b = MeasurementConfig::default();
        let a = uops_info::measure::measure(&backend, &seq, &cfg_a, RunContext::default());
        let b = uops_info::measure::measure(&backend, &seq, &cfg_b, RunContext::default());
        prop_assert!((a.cycles - b.cycles).abs() < 0.35, "a={} b={}", a.cycles, b.cycles);
        prop_assert!((a.uops_total - b.uops_total).abs() < 0.2);
    }
}

// ---------------------------------------------------------------------------
// Catalog-wide invariants (plain tests, not proptest, but over all variants)
// ---------------------------------------------------------------------------

/// Every catalog variant can be bound with fresh operands and printed, and
/// its source/destination sets are consistent with its operand descriptions.
#[test]
fn catalog_variants_bind_and_print() {
    let catalog = Catalog::intel_core();
    let mut bound = 0usize;
    for desc in catalog.iter() {
        let arc = std::sync::Arc::new(desc.clone());
        let mut pool = RegisterPool::new();
        let Ok(inst) = Inst::bind(&arc, &std::collections::BTreeMap::new(), &mut pool) else {
            continue;
        };
        let text = inst.to_intel_syntax();
        assert!(text.starts_with(&desc.mnemonic), "{text} does not start with {}", desc.mnemonic);
        for &s in &desc.source_indices() {
            assert!(desc.operands[s].read);
        }
        for &d in &desc.destination_indices() {
            assert!(desc.operands[d].write);
        }
        bound += 1;
    }
    assert!(bound > 2000, "only {bound} variants could be bound");
}

/// The catalog's XML roundtrip preserves every variant.
#[test]
fn catalog_xml_roundtrip_is_lossless() {
    let catalog = Catalog::intel_core();
    let xml = uops_info::isa::xml::catalog_to_xml(&catalog);
    let parsed = uops_info::isa::xml::catalog_from_xml(&xml).expect("parse");
    assert_eq!(parsed.len(), catalog.len());
    for (a, b) in catalog.iter().zip(parsed.iter()) {
        assert_eq!(a.mnemonic, b.mnemonic);
        assert_eq!(a.variant(), b.variant());
        assert_eq!(a.extension, b.extension);
        assert_eq!(a.category, b.category);
    }
}

// ---------------------------------------------------------------------------
// uops-db snapshots: lossless, byte-identical, forward-compatible encodings
// ---------------------------------------------------------------------------

/// Strategy: an optional float with a present-but-zero case.
fn arb_opt_f64() -> impl Strategy<Value = Option<f64>> {
    (0u8..3, 0.0f64..8.0).prop_map(|(tag, v)| match tag {
        0 => None,
        1 => Some(0.0),
        _ => Some(v),
    })
}

/// Strategy: a latency edge with all optional fields exercised.
fn arb_edge() -> impl Strategy<Value = LatencyEdge> {
    ((0u32..4, 0u32..4, 0.0f64..30.0, 0u8..2), (arb_opt_f64(), arb_opt_f64())).prop_map(
        |((source, target, cycles, upper), (same, low))| LatencyEdge {
            source,
            target,
            cycles,
            upper_bound: upper == 1,
            same_reg_cycles: same,
            low_value_cycles: low,
        },
    )
}

/// Strategy: one variant record drawn from small string pools (including
/// strings that need escaping) with sorted port entries.
fn arb_record() -> impl Strategy<Value = VariantRecord> {
    const MNEMONICS: [&str; 6] = ["ADD", "SHLD", "VPADDD", "A<B>", "Ä\"Q\"", "DIV\n"];
    const VARIANTS: [&str; 4] = ["R64, R64", "XMM, XMM", "", "R64, M64 \\ esc"];
    const EXTENSIONS: [&str; 3] = ["BASE", "AVX2", "AES"];
    const UARCHES: [&str; 3] = ["Nehalem", "Haswell", "Skylake"];
    (
        (0usize..6, 0usize..4, 0usize..3, 0usize..3, 0u32..5),
        prop::collection::vec((1u16..0x100, 1u32..4), 0..4),
        (0u32..3, 0.0f64..8.0, arb_opt_f64(), arb_opt_f64(), arb_opt_f64()),
        prop::collection::vec(arb_edge(), 0..3),
    )
        .prop_map(
            |(
                (m, v, e, u, uops),
                mut ports,
                (unattributed, tp, tp_ports, tp_low, tp_breaking),
                latency,
            )| {
                // The JSON encoding stores ports in the paper's notation,
                // which is canonical (sorted); keep the model canonical too.
                ports.sort_unstable();
                ports.dedup_by_key(|(mask, _)| *mask);
                VariantRecord {
                    mnemonic: MNEMONICS[m].to_string(),
                    variant: VARIANTS[v].to_string(),
                    extension: EXTENSIONS[e].to_string(),
                    uarch: UARCHES[u].to_string(),
                    uop_count: uops,
                    ports,
                    unattributed,
                    tp_measured: tp,
                    tp_ports,
                    tp_low_values: tp_low,
                    tp_breaking,
                    latency,
                }
            },
        )
}

/// Strategy: a whole snapshot with uarch metadata and records.
fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    (
        prop::collection::vec((0u8..3, 2008u32..2020, 1u32..400, 0u32..50), 0..3),
        prop::collection::vec(arb_record(), 0..6),
    )
        .prop_map(|(metas, records)| {
            const UARCHES: [&str; 3] = ["Nehalem", "Haswell", "Skylake"];
            let mut snapshot = Snapshot::new("uops-info proptest");
            for (u, year, characterized, skipped) in metas {
                snapshot.upsert_uarch(UarchMeta {
                    name: UARCHES[u as usize].to_string(),
                    processor: format!("CPU-{year}"),
                    year,
                    ports: if year >= 2013 { 8 } else { 6 },
                    characterized,
                    skipped,
                });
            }
            snapshot.records = records;
            snapshot
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Binary encoding: decode(encode(s)) == s, and re-encoding the decoded
    /// snapshot is byte-identical.
    #[test]
    fn snapshot_binary_roundtrip(snapshot in arb_snapshot()) {
        let bytes = uops_info::db::codec::encode(&snapshot);
        let decoded = uops_info::db::codec::decode(&bytes).expect("decode");
        prop_assert_eq!(&decoded, &snapshot);
        prop_assert_eq!(uops_info::db::codec::encode(&decoded), bytes);
    }

    /// JSON encoding: from_json(to_json(s)) == s, and re-encoding is
    /// byte-identical.
    #[test]
    fn snapshot_json_roundtrip(snapshot in arb_snapshot()) {
        let text = uops_info::db::json::to_json(&snapshot);
        let parsed = uops_info::db::json::from_json(&text).expect("parse");
        prop_assert_eq!(&parsed, &snapshot);
        prop_assert_eq!(uops_info::db::json::to_json(&parsed), text);
    }

    /// Forward compatibility: unknown fields appended by a future producer
    /// are skipped, not rejected — in both encodings.
    #[test]
    fn snapshot_decoders_skip_unknown_fields(snapshot in arb_snapshot()) {
        // Binary: append three unknown top-level fields (varint field 99,
        // fixed64 field 100, length-delimited field 101).
        let mut bytes = uops_info::db::codec::encode(&snapshot);
        let put_varint = |out: &mut Vec<u8>, mut v: u64| {
            loop {
                let byte = (v & 0x7f) as u8;
                v >>= 7;
                if v == 0 { out.push(byte); break; }
                out.push(byte | 0x80);
            }
        };
        put_varint(&mut bytes, 99 << 3); // wire type 0
        put_varint(&mut bytes, 1234);
        put_varint(&mut bytes, (100 << 3) | 1); // wire type 1
        bytes.extend_from_slice(&1.5f64.to_le_bytes());
        put_varint(&mut bytes, (101 << 3) | 2); // wire type 2
        put_varint(&mut bytes, 6);
        bytes.extend_from_slice(b"future");
        let decoded = uops_info::db::codec::decode(&bytes).expect("skip unknown binary fields");
        prop_assert_eq!(&decoded, &snapshot);

        // JSON: splice an unknown key (with nested structure) into the
        // document a future producer might write.
        let text = uops_info::db::json::to_json(&snapshot);
        let extended = text.replacen(
            "{\n",
            "{\n  \"future_key\": {\"nested\": [1, 2.5, \"x\", null, true]},\n",
            1,
        );
        let parsed = uops_info::db::json::from_json(&extended)
            .expect("skip unknown JSON keys");
        prop_assert_eq!(&parsed, &snapshot);
    }

    /// Segment posting lists: for every mnemonic, extension, uarch, and
    /// (uarch, port), the posting list holds exactly the ids a linear scan
    /// over the record views finds, in ascending order; and Query results
    /// match brute-force filtering.
    #[test]
    fn segment_postings_agree_with_linear_scan(snapshot in arb_snapshot()) {
        let segment = Segment::from_bytes(Segment::encode(&snapshot)).expect("valid segment");
        let db = segment.db();
        let scan = |keep: &dyn Fn(&uops_info::db::RecordView<'_>) -> bool| -> Vec<u32> {
            db.views().filter(|v| keep(v)).map(|v| v.id).collect()
        };
        let listed = |list: Option<uops_info::db::IdList<'_>>| -> Vec<u32> {
            list.map(|l| l.iter().collect()).unwrap_or_default()
        };
        let strings = |field: fn(&VariantRecord) -> &str| -> Vec<String> {
            let mut all: Vec<String> =
                snapshot.records.iter().map(|r| field(r).to_string()).collect();
            all.push("NOT-IN-SEGMENT".to_string());
            all
        };
        for m in strings(|r| &r.mnemonic) {
            let indexed = listed(db.lookup_sym(&m).map(|s| db.postings_by_mnemonic(s)));
            prop_assert_eq!(indexed, scan(&|v| v.mnemonic() == m), "mnemonic {}", m);
        }
        for e in strings(|r| &r.extension) {
            let indexed = listed(db.lookup_sym(&e).map(|s| db.postings_by_extension(s)));
            prop_assert_eq!(indexed, scan(&|v| v.extension() == e), "extension {}", e);
        }
        for uarch in strings(|r| &r.uarch) {
            let sym = db.lookup_sym(&uarch);
            let indexed = listed(sym.map(|s| db.postings_by_uarch(s)));
            prop_assert_eq!(indexed, scan(&|v| v.uarch() == uarch), "uarch {}", uarch);
            for port in 0u8..16 {
                let indexed = listed(sym.map(|s| db.postings_by_uarch_port(s, port)));
                let scanned =
                    scan(&|v| v.uarch() == uarch && v.port_union() & (1u16 << port) != 0);
                prop_assert_eq!(indexed, scanned, "uarch {} port {}", uarch, port);
            }
            let q = Query::new().uarch(uarch.as_str()).min_uops(1).run(&db);
            let brute = scan(&|v| v.uarch() == uarch && v.uop_count() >= 1).len();
            prop_assert_eq!(q.total_matches, brute);
        }
    }
}
