//! Property tests for the wire codecs: randomly generated messages —
//! including `f64` edge values, empty collections and every option
//! combination — must round-trip **bit-identically** (decode(encode(x))
//! equals x and re-encodes to the same bytes), and every truncation or
//! corruption of a valid frame must yield a typed [`WireError`], never a
//! panic.

use rand::prelude::*;
use ssrq_core::{Algorithm, QueryRequest, QueryResult, QueryStats, RankedUser};
use ssrq_net::wire::{parse_header, WireError, HEADER_LEN};
use ssrq_net::{FailureKind, Message, ShardInfo};
use ssrq_spatial::{Point, Rect};
use std::time::Duration;

/// NaN-free `f64` edge values: signed zeros, subnormals, extremes,
/// infinities.  (NaN is excluded by construction everywhere in the engine —
/// scores are built from finite distances — so the codecs only promise
/// bit-exactness on non-NaN values, where bit-exact implies `==`.)
fn edge_f64(rng: &mut StdRng) -> f64 {
    const EDGES: [f64; 12] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.3,
        f64::MIN_POSITIVE,       // smallest normal
        f64::MIN_POSITIVE / 4.0, // subnormal
        f64::MAX,
        f64::MIN,
        1e-300,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    if rng.gen_bool(0.5) {
        EDGES[rng.gen_range(0..EDGES.len())]
    } else {
        (rng.gen::<f64>() - 0.5) * 1e6
    }
}

fn point(rng: &mut StdRng) -> Point {
    Point::new(edge_f64(rng), edge_f64(rng))
}

fn rect(rng: &mut StdRng) -> Rect {
    // Codecs must carry *any* rectangle bit-exactly, valid or not.
    Rect {
        min: point(rng),
        max: point(rng),
    }
}

fn request(rng: &mut StdRng) -> QueryRequest {
    let mut builder = QueryRequest::for_user(rng.gen_range(0..10_000u32))
        .k(rng.gen_range(0..64usize))
        .alpha(edge_f64(rng));
    // The twelve paper methods plus the AUTO meta-algorithm: every value a
    // request can name.
    builder = builder.algorithm(if rng.gen_bool(0.1) {
        Algorithm::Auto
    } else {
        Algorithm::ALL[rng.gen_range(0..Algorithm::ALL.len())]
    });
    if rng.gen_bool(0.5) {
        builder = builder.origin(point(rng));
    }
    if rng.gen_bool(0.5) {
        builder = builder.within(rect(rng));
    }
    let exclusions = rng.gen_range(0..10usize);
    builder = builder.exclude((0..exclusions).map(|_| rng.gen_range(0..10_000u32)));
    if rng.gen_bool(0.5) {
        builder = builder.max_score(edge_f64(rng));
    }
    builder.build_unvalidated()
}

fn stats(rng: &mut StdRng) -> QueryStats {
    let counter = |rng: &mut StdRng| rng.gen_range(0..1u64 << 48) as usize;
    QueryStats {
        vertex_pops: counter(rng),
        social_pops: counter(rng),
        spatial_pops: counter(rng),
        index_pops: counter(rng),
        evaluated_users: counter(rng),
        distance_calls: counter(rng),
        cache_hits: counter(rng),
        delayed_reinsertions: counter(rng),
        relaxed_edges: counter(rng),
        reverse_settles: counter(rng),
        reverse_relaxed_edges: counter(rng),
        streamable_results: counter(rng),
        bytes_sent: counter(rng),
        bytes_received: counter(rng),
        wire_round_trips: counter(rng),
        runtime: Duration::from_nanos(rng.gen_range(0..1u64 << 60)),
    }
}

fn result(rng: &mut StdRng) -> QueryResult {
    let entries = rng.gen_range(0..20usize); // 0 = the empty-result edge
    QueryResult {
        ranked: (0..entries)
            .map(|_| RankedUser {
                user: rng.gen_range(0..10_000u32),
                score: edge_f64(rng),
                social: edge_f64(rng),
                spatial: edge_f64(rng),
            })
            .collect(),
        k: rng.gen_range(0..64usize),
        degraded: rng.gen_bool(0.5),
        stats: stats(rng),
    }
}

fn shard_info(rng: &mut StdRng) -> ShardInfo {
    ShardInfo {
        shard: rng.gen_range(0..64u32),
        shards: rng.gen_range(1..64u32),
        user_count: rng.gen_range(0..1u64 << 40),
        located: rng.gen_range(0..1u64 << 40),
        rect: rng.gen_bool(0.5).then(|| rect(rng)),
        spatial_norm: edge_f64(rng),
        social_norm: edge_f64(rng),
    }
}

fn message(rng: &mut StdRng) -> Message {
    match rng.gen_range(0..16u32) {
        0 => Message::MetricsRequest,
        1 => Message::Info(shard_info(rng)),
        2 => Message::Query {
            request: request(rng),
            trace_id: if rng.gen_bool(0.5) { rng.gen() } else { 0 },
        },
        3 => Message::Answer(result(rng)),
        4 => Message::Relocate {
            user: rng.gen_range(0..10_000u32),
            location: rng.gen_bool(0.5).then(|| point(rng)),
        },
        5 => Message::Relocated {
            adopted: rng.gen_bool(0.5),
            held: rng.gen_bool(0.5),
        },
        6 => Message::ListLocated,
        7 => {
            let n = rng.gen_range(0..16usize);
            Message::LocatedUsers(
                (0..n)
                    .map(|_| (rng.gen_range(0..10_000u32), point(rng)))
                    .collect(),
            )
        }
        8 => {
            let n = rng.gen_range(0..64usize);
            Message::SetAssignment {
                cell_to_shard: (0..n).map(|_| rng.gen_range(0..16u32)).collect(),
            }
        }
        9 => Message::Refresh,
        10 => Message::Fail {
            kind: [
                FailureKind::InvalidRequest,
                FailureKind::UnknownUser,
                FailureKind::MissingIndex,
                FailureKind::Internal,
            ][rng.gen_range(0..4usize)],
            message: format!("detail #{} — ünïcode", rng.gen_range(0..1000u32)),
        },
        11 => Message::Ping,
        12 => Message::Pong,
        13 => Message::Shutdown,
        14 => Message::AnswerFrom {
            origin: point(rng),
            result: result(rng),
        },
        _ => Message::Ok,
    }
}

/// Full-frame decode as a receiver performs it: header, declared payload
/// length, payload.
fn decode_frame(bytes: &[u8]) -> Result<Message, WireError> {
    let header = parse_header(bytes)?;
    let start = header.header_len();
    let have = bytes.len() - start;
    if have < header.payload_len as usize {
        return Err(WireError::Truncated {
            needed: header.payload_len as usize,
            have,
        });
    }
    Message::decode(
        header.tag,
        &bytes[start..start + header.payload_len as usize],
    )
}

#[test]
fn random_messages_round_trip_bit_identically() {
    let mut rng = StdRng::seed_from_u64(0x55125);
    for case in 0..500 {
        let original = message(&mut rng);
        let bytes = original.encode();
        let decoded = decode_frame(&bytes)
            .unwrap_or_else(|e| panic!("case {case}: failed to decode {original:?}: {e}"));
        assert_eq!(decoded, original, "case {case}");
        // Canonical encoding: re-encoding the decoded value reproduces the
        // exact bytes (exclusion sets are sorted at encode time, floats are
        // bit patterns).
        assert_eq!(decoded.encode(), bytes, "case {case}: non-canonical");
    }
}

#[test]
fn every_truncation_of_a_valid_frame_is_a_typed_error() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..40 {
        let original = message(&mut rng);
        let bytes = original.encode();
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Err(WireError::Truncated { .. }) => {}
                Err(other) => panic!("cut {cut} of {original:?}: unexpected error {other}"),
                Ok(m) => panic!("cut {cut} of {original:?}: decoded {m:?} from a prefix"),
            }
        }
    }
}

#[test]
fn corrupted_frames_never_panic_and_header_errors_are_precise() {
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..60 {
        let original = message(&mut rng);
        let mut bytes = original.encode();
        let index = rng.gen_range(0..bytes.len());
        let flip: u8 = 1 << rng.gen_range(0..8u32);
        bytes[index] ^= flip;
        // Whatever the corruption, decoding must terminate without panicking;
        // a changed byte may still decode (e.g. a flipped score bit).
        let _ = decode_frame(&bytes);
    }

    let bytes = Message::Ping.encode();
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(decode_frame(&bad), Err(WireError::BadMagic(_))));
    let mut bad = bytes.clone();
    bad[4] = 200;
    assert!(matches!(
        decode_frame(&bad),
        Err(WireError::UnsupportedVersion(200))
    ));
    let mut bad = bytes.clone();
    bad[5] = 0xEE; // unknown message tag
    assert!(matches!(
        decode_frame(&bad),
        Err(WireError::UnknownMessage(0xEE))
    ));
    let mut bad = bytes;
    bad[10..14].copy_from_slice(&(u32::MAX).to_le_bytes());
    assert!(matches!(decode_frame(&bad), Err(WireError::Oversize(_))));
}

#[test]
fn frame_ids_and_legacy_encoding_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x1D5);
    for case in 0..200 {
        let original = message(&mut rng);

        // The frame id a request goes out with is exactly what the parsed
        // header reports, and it never disturbs the payload.
        let id: u32 = rng.gen();
        let bytes = original.encode_with_id(id);
        let header = parse_header(&bytes).unwrap();
        assert_eq!(header.frame_id, id, "case {case}");
        assert_eq!(
            decode_frame(&bytes).unwrap_or_else(|e| panic!("case {case}: {e}")),
            original,
            "case {case}"
        );
        assert_eq!(
            &bytes[HEADER_LEN..],
            &original.encode()[HEADER_LEN..],
            "case {case}: payloads diverge"
        );
    }
}

#[test]
fn payload_level_corruptions_are_typed_not_panics() {
    // A Relocate frame whose presence byte (after the u32 user) is out of
    // range.
    let bytes = Message::Relocate {
        user: 9,
        location: Some(Point::new(1.0, 2.0)),
    }
    .encode();
    let mut bad = bytes.clone();
    bad[HEADER_LEN + 4] = 7;
    assert!(matches!(decode_frame(&bad), Err(WireError::Invalid(_))));

    // Trailing garbage after a complete payload.
    let tag = parse_header(&bytes).unwrap().tag;
    let mut padded = bytes[HEADER_LEN..].to_vec();
    padded.extend_from_slice(&[0, 0, 0]);
    assert!(matches!(
        Message::decode(tag, &padded),
        Err(WireError::TrailingBytes(3))
    ));

    // A Fail frame carrying invalid UTF-8.
    let fail = Message::Fail {
        kind: FailureKind::Internal,
        message: "abcd".into(),
    };
    let mut bytes = fail.encode();
    let text_start = bytes.len() - 4;
    bytes[text_start..].copy_from_slice(&[0xFF, 0xFE, 0xFD, 0xFC]);
    assert!(matches!(decode_frame(&bytes), Err(WireError::Invalid(_))));

    // A Query frame naming an unknown algorithm.
    let query = Message::query(
        QueryRequest::for_user(1)
            .algorithm(Algorithm::Sfa)
            .build_unvalidated(),
    );
    let mut bytes = query.encode();
    // The name "SFA" sits after user(4) + k(8) + alpha(8) + algorithm
    // marker(1) + string length(4) in the payload.
    let name_at = HEADER_LEN + 4 + 8 + 8 + 1 + 4;
    bytes[name_at..name_at + 3].copy_from_slice(b"ZZZ");
    assert!(matches!(decode_frame(&bytes), Err(WireError::Invalid(_))));
}
