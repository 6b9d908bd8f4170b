//! Garbage in, typed error out: the JSON parser and every schema
//! validator answer random bytes, truncations and single-byte
//! substitutions of a valid document with `Ok` or `Err`, never a panic.

use bench::{
    validate_chrome_trace, validate_metrics, validate_report, BenchReport, Json, MetricRow,
};
use proptest::prelude::*;
use xtask::analyze::diag::{fingerprint, validate_diag, DiagReport, Diagnostic, Severity};

/// Bytes that keep mutated input close to JSON, so it gets past the
/// first token more often than uniform bytes do.
const JSON_BYTES: &[u8] = b"{}[]\":,.-+eE0123456789 \\ntrufalsu\xc3\xa9";

/// Feeds `text` to the parser and every validator. Any panic fails the
/// test; each call's result is otherwise free to be `Ok` or `Err`.
fn read_everything(text: &str) {
    let _ = Json::parse(text);
    let _ = validate_report(text);
    let _ = BenchReport::parse(text).and_then(|r| r.check_latency_percentiles());
    let _ = validate_metrics(text);
    let _ = validate_diag(text);
    let _ = validate_chrome_trace(text);
}

/// One valid document per schema.
fn documents() -> Vec<String> {
    let mut bench = BenchReport::new("garbage");
    bench.push(
        MetricRow::new()
            .label("mode", "cached")
            .value("p50_latency_s", 1e-5)
            .value("p99_latency_s", 4e-5),
    );
    bench.push(
        MetricRow::new()
            .label("kernel", "hybrid")
            .value("issues", 3.0),
    );
    let diag = DiagReport {
        name: "analyze".to_string(),
        files_scanned: 2,
        stale_baseline: 0,
        findings: vec![Diagnostic {
            rule: "uncosted-smem".to_string(),
            severity: Severity::Deny,
            file: "crates/kernels/src/a.rs".to_string(),
            line: 3,
            col: 7,
            message: "raw read".to_string(),
            help: "use a collective".to_string(),
            fingerprint: fingerprint("uncosted-smem", "a.rs", "x.read(0);"),
            baselined: true,
        }],
    };
    let metrics = "{\"schema\":\"metrics.v1\",\"name\":\"serve\",\
        \"counters\":{\"serve.requests_arrived_total\":3,\
        \"serve.requests_rejected_total\":1,\"serve.requests_served_total\":2,\
        \"serve.shed_queue_full_total\":1},\"gauges\":{\"serve.qps\":12.5},\
        \"histograms\":[{\"name\":\"serve.latency_s\",\"count\":3,\"sum\":0.5,\
        \"overflow\":1,\"p50\":1e-7,\"p99\":1e-7,\
        \"buckets\":[{\"i\":0,\"le\":1e-7,\"count\":2}]}]}";
    let trace = "{\"traceEvents\":[\
        {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"k\"}},\
        {\"name\":\"scan\",\"ph\":\"X\",\"ts\":0.5,\"dur\":2.5,\"pid\":0,\"tid\":1}\
        ],\"displayTimeUnit\":\"ms\"}";
    let docs = vec![
        bench.to_json(),
        metrics.to_string(),
        diag.to_json(),
        trace.to_string(),
    ];
    validate_report(&docs[0]).expect("bench.v1 fixture");
    validate_metrics(&docs[1]).expect("metrics.v1 fixture");
    validate_diag(&docs[2]).expect("diag.v1 fixture");
    validate_chrome_trace(&docs[3]).expect("trace fixture");
    docs
}

fn json_byte() -> BoxedStrategy<u8> {
    prop_oneof![
        0u8..=255,
        (0usize..JSON_BYTES.len()).prop_map(|i| JSON_BYTES[i]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn garbage_json_is_an_error_never_a_panic(
        garbage in proptest::collection::vec(json_byte(), 0..160),
        doc in 0usize..4,
        at in 0usize..4096,
        byte in json_byte(),
    ) {
        read_everything(&String::from_utf8_lossy(&garbage));
        let bytes = documents().swap_remove(doc).into_bytes();
        for end in 0..bytes.len() {
            read_everything(&String::from_utf8_lossy(&bytes[..end]));
        }
        let mut swapped = bytes;
        let at = at % swapped.len();
        swapped[at] = byte;
        read_everything(&String::from_utf8_lossy(&swapped));
    }
}
