//! The line-JSON decoders never panic: whatever bytes arrive, `json::parse`,
//! `Request::decode` and `Response::decode` return, and a line that is not
//! a well-formed record decodes to an `Err`.
//!
//! Inputs are arbitrary byte strings made lossy UTF-8 (as a front would see
//! a garbled frame), plus mutations of real wire lines: truncated at every
//! byte, with bytes overwritten, and wrapped in nesting far beyond what the
//! parser accepts.

use proptest::prelude::*;
use uu_server::json;
use uu_server::protocol::{Request, Response};

/// Real wire lines of both directions, including the widest record.
const SEEDS: &[&str] = &[
    r#"{"op":"query","sql":"SELECT SUM(employees) FROM companies","estimators":["bucket","naive"],"cached":false,"trace":true}"#,
    r#"{"op":"load_csv","table":"companies","columns":[["company","str"],["employees","float"]],"entity_column":"company","source_column":"worker","append":true,"csv":"worker,company,employees\n0,A,1000\n"}"#,
    r#"{"op":"append_stream","table":"companies","source_column":"worker","csv":"worker,company,employees\n5,F,\"7\"\n"}"#,
    r#"{"op":"prepare","session":"analyst-1","name":"q1","sql":"SELECT SUM(employees) FROM companies"}"#,
    r#"{"ok":true,"op":"query","sql":"S","cache_hit":true,"elapsed_us":123,"grouped":false,"groups":[{"key":{"t":"float","v":2.5},"result":{"query":"S","observed":13300,"corrected":13950.000000000002,"method":"bucket","n_hat":5.5,"upper_bound":"inf","extreme":{"trusted":false,"observed":300,"estimated_missing":0.75},"diagnostics":{"coverage":0.8,"contributing_sources":5,"max_source_share":0.3333333333333333,"source_gini":-0},"recommendation":"bucket","estimates":[{"name":"freq","delta":"-inf","n_hat":null,"corrected":"NaN"}]}}],"trace":[{"stage":"request","parent":null,"start_ns":0,"dur_ns":870000},{"stage":"estimator_fanout","label":"bucket","parent":0,"start_ns":12500,"dur_ns":700000}]}"#,
    r#"{"ok":true,"op":"stats","protocol":8,"tables":["t"],"workers":4,"connections":10,"requests":25,"errors":2,"uptime_ms":1234,"sessions":[{"name":"a","estimators":["bucket"],"prepared":2,"executes":40,"frozen_hits":38,"age_ms":600}],"cache":{"hits":7,"misses":3,"insertions":3,"evictions":1,"invalidations":0,"expirations":0,"len":2,"bytes":4096,"capacity":128,"byte_budget":null,"ttl_ms":null},"projection":{"builds":3,"reuses":17,"bytes":65536},"conn":{"open":1,"peak_open":1,"frames_in":90,"frames_out":92,"bytes_in":16384,"bytes_out":65000,"idle_reaped":4,"backpressure":1,"queue_depth_peak":17,"queue_wait_us_total":4200,"queue_wait_us_max":950,"backend":"epoll"},"incremental":{"delta_batches":6,"rows_appended":600,"permutation_merges":11,"snapshots_refrozen":5,"fallback_rebuilds":1},"storage":{"wal_records":8,"wal_bytes":12288,"fsyncs":9,"checkpoints":2,"recovered_tables":1,"replayed_records":3,"truncated_tail_bytes":17}}"#,
    r#"{"ok":true,"op":"server_info","version":"0.1.0","protocol":7,"uptime_ms":12,"active_sessions":0,"fronts":["json"],"workers":2,"data_dir":"/d","durability":"off","last_checkpoint_age_ms":1234.5}"#,
    r#"{"ok":true,"op":"metrics","entries":[{"verb":"query","stage":"request","count":41,"p50_us":420.5,"p90_us":1000,"p99_us":2830,"max_us":2831.25,"mean_us":600.125}]}"#,
    r#"{"ok":false,"error":{"code":"unknown_estimator","message":"unknown estimator \"x\"","accepted":["naive","bucket"]}}"#,
];

/// Runs all three decoders on `line`; a panic anywhere fails the test.
fn decode_all(line: &str) -> (bool, bool, bool) {
    (
        json::parse(line).is_ok(),
        Request::decode(line).is_ok(),
        Response::decode(line).is_ok(),
    )
}

#[test]
fn every_truncation_of_a_wire_line_is_an_error() {
    for seed in SEEDS {
        assert!(decode_all(seed).0, "{seed}");
        for cut in 0..seed.len() {
            let Some(prefix) = seed.get(..cut) else {
                continue;
            };
            assert_eq!(decode_all(prefix), (false, false, false), "{prefix}");
        }
    }
}

#[test]
fn nesting_far_beyond_the_bound_is_an_error() {
    for opener in ["[", "{\"k\":", "[{\"a\":[", "{\"op\":\"query\",\"sql\":["] {
        let line = opener.repeat(200_000);
        assert_eq!(decode_all(&line), (false, false, false));
        let wrapped = format!(r#"{{"op":"query","sql":"S","estimators":{line}"#);
        assert_eq!(decode_all(&wrapped), (false, false, false));
    }
    // Balanced but too deep: well-formed JSON, still refused.
    let depth = json::MAX_DEPTH + 1;
    let balanced = format!(
        r#"{{"ok":true,"op":"metrics","entries":{}{}}}"#,
        "[".repeat(depth),
        "]".repeat(depth)
    );
    assert_eq!(decode_all(&balanced), (false, false, false));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes: the decoders return, and no request or response
    /// comes out of noise.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(0u16..256, 0..96),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let line = String::from_utf8_lossy(&bytes);
        let (_, request, response) = decode_all(&line);
        prop_assert!(!request && !response, "{line:?}");
    }

    /// Real wire lines with a run of bytes overwritten by arbitrary bytes:
    /// the decoders return whatever the damage.
    #[test]
    fn overwritten_wire_lines_never_panic(
        seed in 0usize..SEEDS.len(),
        at in 0usize..2048,
        patch in proptest::collection::vec(0u16..256, 1..8),
    ) {
        let mut bytes = SEEDS[seed].as_bytes().to_vec();
        let at = at % bytes.len();
        for (i, b) in patch.into_iter().enumerate() {
            if let Some(slot) = bytes.get_mut(at + i) {
                *slot = b as u8;
            }
        }
        decode_all(&String::from_utf8_lossy(&bytes));
    }

    /// Real wire lines with a structural character spliced in: unbalanced
    /// brackets, stray quotes and separators.
    #[test]
    fn spliced_wire_lines_never_panic(
        seed in 0usize..SEEDS.len(),
        at in 0usize..2048,
        token in 0usize..10,
        repeat in 1usize..200,
    ) {
        let line = SEEDS[seed];
        let mut at = at % line.len();
        while !line.is_char_boundary(at) {
            at -= 1;
        }
        let token = ["[", "{", "]", "}", "\"", ",", ":", "\\", "-", "null"][token];
        let spliced = format!("{}{}{}", &line[..at], token.repeat(repeat), &line[at..]);
        decode_all(&spliced);
    }
}
