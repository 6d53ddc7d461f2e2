//! Property tests for the load generator: stream synthesis is a pure
//! function of the spec, arrival times are sorted sums of non-negative
//! gaps, and the latency histogram's quantiles are exact on
//! exactly-representable inputs.

use fpga_rt_loadgen::{synthesize, ArrivalProfile, LatencyHistogram, LoadSpec, OpKind};
use proptest::prelude::*;

#[path = "../../service/tests/poisson_stream/mod.rs"]
mod poisson_stream;
use poisson_stream::{poisson_stream, PoissonOp};

fn any_profile() -> impl Strategy<Value = ArrivalProfile> {
    (0u32..3).prop_map(|i| match i {
        0 => ArrivalProfile::Poisson,
        1 => ArrivalProfile::Bursty,
        _ => ArrivalProfile::Adversarial,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same spec ⇒ byte-identical stream, whatever the profile and seed.
    #[test]
    fn streams_are_deterministic_per_seed(
        profile in any_profile(),
        seed in 0u64..1_000_000,
        ops in 1usize..400,
        sessions in 1u32..32,
    ) {
        let spec = LoadSpec { profile, ops, sessions, columns: 100, seed };
        let a = synthesize(&spec).unwrap();
        let b = synthesize(&spec).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Arrival times are non-decreasing (cumulative non-negative gaps),
    /// the stream has exactly `ops` entries, sessions stay in range, and
    /// every admitted candidate validates into a model task.
    #[test]
    fn streams_are_sorted_and_well_formed(
        profile in any_profile(),
        seed in 0u64..1_000_000,
        ops in 1usize..400,
        sessions in 1u32..32,
    ) {
        let spec = LoadSpec { profile, ops, sessions, columns: 100, seed };
        let stream = synthesize(&spec).unwrap();
        prop_assert_eq!(stream.len(), ops);
        for pair in stream.windows(2) {
            prop_assert!(pair[1].at_ns >= pair[0].at_ns, "gap must be non-negative");
        }
        for op in &stream {
            prop_assert!(op.session < sessions);
            if let OpKind::Admit(params) = &op.kind {
                let task = params.to_task();
                prop_assert!(task.is_ok(), "invalid admit params: {:?}", params);
                prop_assert!(task.unwrap().area() <= 100);
            }
        }
    }

    /// Values below the exact limit (64) land in unit buckets, so any
    /// quantile of such a sample set is *exactly* the rank-selected sample:
    /// the histogram agrees with a sorted-vector oracle.
    #[test]
    fn quantiles_match_sorted_oracle_on_exact_values(
        mut samples in collection::vec(0u64..64, 1..200),
        q in 0.0f64..=1.0,
    ) {
        let mut hist = LatencyHistogram::new();
        for &v in &samples {
            hist.record(v);
        }
        samples.sort_unstable();
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        prop_assert_eq!(hist.quantile(q), Some(samples[rank - 1]));
        prop_assert_eq!(hist.max(), *samples.last().unwrap());
        prop_assert_eq!(hist.count(), samples.len() as u64);
    }

    /// For arbitrary u64 samples the quantile is a lower bound within the
    /// documented 1/32 relative quantization error.
    #[test]
    fn quantiles_are_lower_bounds_within_error(
        mut samples in collection::vec(0u64..1_000_000_000, 1..200),
        q in 0.0f64..=1.0,
    ) {
        let mut hist = LatencyHistogram::new();
        for &v in &samples {
            hist.record(v);
        }
        samples.sort_unstable();
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        let exact = samples[rank - 1];
        let reported = hist.quantile(q).unwrap();
        prop_assert!(reported <= exact);
        prop_assert!(
            (exact - reported) as f64 <= (exact as f64) / 32.0 + 1.0,
            "reported {reported} too far below exact {exact}"
        );
    }

    /// Histogram merge is associative and order-insensitive — the property
    /// the telemetry registry leans on when per-shard histograms are folded
    /// into one snapshot in whatever order shards drain — and the merged
    /// population agrees with a sorted-vector oracle on count, max, and
    /// (within the 1/32 quantization error) the median.
    #[test]
    fn histogram_merge_is_associative_against_sorted_oracle(
        a in collection::vec(0u64..1_000_000, 0..80),
        b in collection::vec(0u64..1_000_000, 0..80),
        c in collection::vec(0u64..1_000_000, 0..80),
    ) {
        let build = |s: &[u64]| {
            let mut h = LatencyHistogram::new();
            for &v in s {
                h.record(v);
            }
            h
        };
        let (ha, hb, hc) = (build(&a), build(&b), build(&c));
        let mut left = ha.clone(); // (a ⊕ b) ⊕ c
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone(); // a ⊕ (b ⊕ c)
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        let mut rev = hc.clone(); // c ⊕ b ⊕ a
        rev.merge(&hb);
        rev.merge(&ha);
        prop_assert_eq!(&left, &rev);

        let mut all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        all.sort_unstable();
        prop_assert_eq!(left.count(), all.len() as u64);
        if let Some(&exact_max) = all.last() {
            prop_assert_eq!(left.max(), exact_max);
            let rank = ((0.5 * all.len() as f64).ceil() as usize).clamp(1, all.len());
            let exact = all[rank - 1];
            let reported = left.quantile(0.5).unwrap();
            prop_assert!(reported <= exact);
            prop_assert!(
                (exact - reported) as f64 <= exact as f64 / 32.0 + 1.0,
                "median {reported} too far below exact {exact}"
            );
        }
    }

    /// Folding per-shard registries into an accumulator yields the same
    /// snapshot whatever order the shards drain in — the determinism
    /// contract behind byte-identical `--metrics-out` artifacts across
    /// `--workers`.
    #[test]
    fn registry_snapshot_is_merge_order_invariant(
        shards in collection::vec(collection::vec((0usize..4, 0u64..1_000_000), 0..24), 1..6),
        deterministic in (0u32..2).prop_map(|b| b == 1),
    ) {
        use fpga_rt_obs::Registry;
        const NAMES: [&str; 4] = ["t/ops", "t/queue_depth", "t/cascade", "t/wait_ns"];
        let build = |ops: &[(usize, u64)]| {
            let r = Registry::with_mode(deterministic);
            for &(which, v) in ops {
                match which {
                    0 => r.add(NAMES[0], v),
                    1 => r.set_gauge(NAMES[1], v),
                    2 => r.record(NAMES[2], v),
                    _ => r.record_ns(NAMES[3], v),
                }
            }
            r
        };
        let registries: Vec<Registry> = shards.iter().map(|s| build(s)).collect();
        let forward = Registry::with_mode(deterministic);
        for r in &registries {
            forward.merge_from(r);
        }
        let backward = Registry::with_mode(deterministic);
        for r in registries.iter().rev() {
            backward.merge_from(r);
        }
        let (a, b) = (forward.snapshot(), backward.snapshot());
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.render_json(), b.render_json());
        prop_assert_eq!(a.render_text(), b.render_text());
        if deterministic {
            // Time-valued samples were zeroed at the recording site.
            if let Some(h) = a.histogram(NAMES[3]) {
                prop_assert_eq!(h.max, 0);
            }
        }
    }

    /// Merging two histograms is equivalent to recording the concatenation.
    #[test]
    fn merge_equals_concatenation(
        a in collection::vec(0u64..1_000_000, 0..100),
        b in collection::vec(0u64..1_000_000, 0..100),
    ) {
        let mut ha = LatencyHistogram::new();
        for &v in &a {
            ha.record(v);
        }
        let mut hb = LatencyHistogram::new();
        for &v in &b {
            hb.record(v);
        }
        let mut hc = LatencyHistogram::new();
        for &v in a.iter().chain(&b) {
            hc.record(v);
        }
        ha.merge(&hb);
        prop_assert_eq!(ha, hc);
    }
}

/// Empty and single-sample histograms, pinned outside proptest so the
/// hand-computed expectations stay explicit.
#[test]
fn empty_and_single_sample_quantiles() {
    let empty = LatencyHistogram::new();
    assert_eq!(empty.quantile(0.5), None);
    assert_eq!(empty.mean(), None);

    let mut one = LatencyHistogram::new();
    one.record(37);
    for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
        assert_eq!(one.quantile(q), Some(37), "q={q}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The service tests draw loadgen's poisson stream from their own copy
    /// of the generator (the service crate cannot depend on loadgen); the
    /// copy must equal `synthesize` op for op.
    #[test]
    fn service_test_poisson_copy_matches_synthesize(
        seed in 0u64..u64::MAX,
        ops in 1usize..600,
        sessions in 1u32..40,
        columns in 1u32..200,
    ) {
        let spec = LoadSpec { profile: ArrivalProfile::Poisson, ops, sessions, columns, seed };
        let want = synthesize(&spec).unwrap();
        let got = poisson_stream(ops, sessions, columns, seed);
        prop_assert_eq!(want.len(), got.len());
        for (w, (at_ns, session, op)) in want.iter().zip(got) {
            prop_assert_eq!((w.at_ns, w.session), (at_ns, session));
            match (&w.kind, op) {
                (OpKind::Admit(p), PoissonOp::Admit(c, d, t, a)) => {
                    prop_assert_eq!((p.exec, p.deadline, p.period, p.area), (c, d, t, a));
                }
                (OpKind::Release, PoissonOp::Release) | (OpKind::Query, PoissonOp::Query) => {}
                (w, g) => prop_assert!(false, "op kinds differ: {:?} vs {:?}", w, g),
            }
        }
    }
}
