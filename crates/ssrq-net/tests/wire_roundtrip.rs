//! Property tests for the wire codecs: randomly generated messages —
//! including `f64` edge values, empty collections and every option
//! combination — must round-trip **bit-identically** (decode(encode(x))
//! equals x and re-encodes to the same bytes), and every truncation or
//! corruption of a valid frame must yield a typed [`WireError`], never a
//! panic.  One fixed message of every tag is pinned byte for byte, so a
//! codec rewrite that changes the encoding of both halves together still
//! fails.

use rand::prelude::*;
use ssrq_core::{Algorithm, QueryRequest, QueryResult, QueryStats, RankedUser};
use ssrq_net::wire::{parse_header, WireError, HEADER_LEN, MAGIC, VERSION};
use ssrq_net::{FailureKind, Message, ShardInfo};
use ssrq_obs::{HistogramSnapshot, MetricSample, MetricValue, ObsReport, QuerySpans, SpanRecord};
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

fn obs_report(rng: &mut StdRng) -> ObsReport {
    let text = |rng: &mut StdRng| format!("m_{}_ü", rng.gen_range(0..1000u32));
    let metrics = (0..rng.gen_range(0..4usize))
        .map(|_| MetricSample {
            name: text(rng),
            labels: (0..rng.gen_range(0..3usize))
                .map(|_| (text(rng), text(rng)))
                .collect(),
            value: if rng.gen_bool(0.5) {
                MetricValue::Counter(rng.gen())
            } else {
                MetricValue::Histogram(HistogramSnapshot {
                    buckets: (0..rng.gen_range(0..5usize))
                        .map(|_| (rng.gen_range(0..65u8), rng.gen()))
                        .collect(),
                    sum: rng.gen(),
                    count: rng.gen(),
                })
            },
        })
        .collect();
    let spans = (0..rng.gen_range(0..3usize))
        .map(|_| QuerySpans {
            trace_id: rng.gen(),
            spans: (0..rng.gen_range(0..4u32))
                .map(|i| SpanRecord {
                    name: text(rng),
                    parent: (i > 0).then(|| rng.gen_range(0..i)),
                    start_ns: rng.gen(),
                    duration_ns: rng.gen(),
                })
                .collect(),
        })
        .collect();
    ObsReport { metrics, spans }
}

fn message(rng: &mut StdRng) -> Message {
    match rng.gen_range(0..17u32) {
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
        15 => Message::MetricsReport(obs_report(rng)),
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

/// One fixed message of every tag, with every field a tag carries set to
/// something other than its default.
fn pinned_messages() -> Vec<Message> {
    let stats = QueryStats {
        vertex_pops: 1,
        social_pops: 2,
        spatial_pops: 3,
        index_pops: 4,
        evaluated_users: 5,
        distance_calls: 6,
        cache_hits: 7,
        delayed_reinsertions: 8,
        relaxed_edges: 9,
        reverse_settles: 10,
        reverse_relaxed_edges: 11,
        streamable_results: 12,
        bytes_sent: 13,
        bytes_received: 14,
        wire_round_trips: 15,
        runtime: Duration::from_nanos(421_000),
    };
    let result = QueryResult {
        ranked: vec![
            RankedUser {
                user: 3,
                score: 0.125,
                social: 0.0625,
                spatial: -0.0,
            },
            RankedUser {
                user: 70_000,
                score: 0.75,
                social: f64::MIN_POSITIVE,
                spatial: 1.5,
            },
        ],
        k: 8,
        degraded: true,
        stats,
    };
    let request = QueryRequest::for_user(9)
        .k(5)
        .alpha(0.62)
        .algorithm(Algorithm::TsaCh)
        .origin(Point::new(0.25, -0.75))
        .within(Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)))
        .exclude([31, 4, 15])
        .max_score(0.5)
        .build_unvalidated();
    let report = ObsReport {
        metrics: vec![
            MetricSample {
                name: "q_total".into(),
                labels: vec![("shard".into(), "1".into())],
                value: MetricValue::Counter(12_345),
            },
            MetricSample {
                name: "lat_ns".into(),
                labels: vec![("algorithm".into(), "SFA".into())],
                value: MetricValue::Histogram(HistogramSnapshot {
                    buckets: vec![(0, 1), (17, 3), (64, 1)],
                    sum: 300_000,
                    count: 5,
                }),
            },
        ],
        spans: vec![QuerySpans {
            trace_id: 0x2A_0000_0007,
            spans: vec![
                SpanRecord {
                    name: "query".into(),
                    parent: None,
                    start_ns: 0,
                    duration_ns: 1_000,
                },
                SpanRecord {
                    name: "scatter".into(),
                    parent: Some(0),
                    start_ns: 10,
                    duration_ns: 900,
                },
            ],
        }],
    };
    vec![
        Message::Info(ShardInfo {
            shard: 1,
            shards: 3,
            user_count: 1_000,
            located: 998,
            rect: Some(Rect::new(Point::new(0.125, -0.25), Point::new(1.5, 2.0))),
            spatial_norm: 1.25,
            social_norm: 0.5,
        }),
        Message::Query {
            request,
            trace_id: 0xDEAD_BEEF_0000_0001,
        },
        Message::Answer(result.clone()),
        Message::Relocate {
            user: 42,
            location: Some(Point::new(0.5, -1.0)),
        },
        Message::Relocated {
            adopted: true,
            held: false,
        },
        Message::ListLocated,
        Message::LocatedUsers(vec![(3, Point::new(0.0, -0.0)), (8, Point::new(3.0, 4.0))]),
        Message::SetAssignment {
            cell_to_shard: vec![0, 2, 1, 1],
        },
        Message::Refresh,
        Message::Fail {
            kind: FailureKind::MissingIndex,
            message: "no index \"CH\"".into(),
        },
        Message::Ping,
        Message::Pong,
        Message::Shutdown,
        Message::Ok,
        Message::MetricsRequest,
        Message::MetricsReport(report),
        Message::AnswerFrom {
            origin: Point::new(0.25, -0.0),
            result,
        },
    ]
}

/// The payload bytes of [`pinned_messages`], by tag, in hex.
const PINNED_PAYLOADS: [(u8, &str); 17] = [
    (
        0x02,
        concat!(
            "0100000003000000e803000000000000e60300000000000001000000000000c0",
            "3f000000000000d0bf000000000000f83f0000000000000040000000000000f4",
            "3f000000000000e03f",
        ),
    ),
    (
        0x03,
        concat!(
            "090000000500000000000000d7a3703d0ad7e33f00060000005453412d434801",
            "000000000000d03f000000000000e8bf01000000000000000000000000000000",
            "00000000000000f03f000000000000f03f03000000040000000f0000001f0000",
            "0001000000000000e03f01000000efbeadde",
        ),
    ),
    (
        0x04,
        concat!(
            "0800000000000000010100000000000000020000000000000003000000000000",
            "0004000000000000000500000000000000060000000000000007000000000000",
            "00080000000000000009000000000000000a000000000000000b000000000000",
            "000c000000000000000d000000000000000e000000000000000f000000000000",
            "00886c0600000000000200000003000000000000000000c03f000000000000b0",
            "3f000000000000008070110100000000000000e83f0000000000001000000000",
            "000000f83f",
        ),
    ),
    (0x07, "2a00000001000000000000e03f000000000000f0bf"),
    (0x08, "0100"),
    (0x09, ""),
    (
        0x0a,
        concat!(
            "0200000003000000000000000000000000000000000000800800000000000000",
            "000008400000000000001040",
        ),
    ),
    (0x0b, "0400000000000000020000000100000001000000"),
    (0x0c, ""),
    (0x0d, "030d0000006e6f20696e6465782022434822"),
    (0x0e, ""),
    (0x0f, ""),
    (0x10, ""),
    (0x11, ""),
    (0x13, ""),
    (
        0x14,
        concat!(
            "0200000007000000715f746f74616c0100000005000000736861726401000000",
            "31003930000000000000060000006c61745f6e730100000009000000616c676f",
            "726974686d030000005346410203000000000100000000000000110300000000",
            "000000400100000000000000e093040000000000050000000000000001000000",
            "070000002a00000002000000050000007175657279000000000000000000e803",
            "000000000000070000007363617474657201000000000a000000000000008403",
            "000000000000",
        ),
    ),
    (
        0x15,
        concat!(
            "000000000000d03f000000000000008008000000000000000101000000000000",
            "0002000000000000000300000000000000040000000000000005000000000000",
            "0006000000000000000700000000000000080000000000000009000000000000",
            "000a000000000000000b000000000000000c000000000000000d000000000000",
            "000e000000000000000f00000000000000886c06000000000002000000030000",
            "00000000000000c03f000000000000b03f000000000000008070110100000000",
            "000000e83f0000000000001000000000000000f83f",
        ),
    ),
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn every_tag_encodes_to_its_pinned_bytes() {
    let messages = pinned_messages();
    assert_eq!(messages.len(), PINNED_PAYLOADS.len());
    for (message, (tag, payload)) in messages.iter().zip(PINNED_PAYLOADS) {
        let frame_id = 0x0102_0304u32;
        let mut expected = MAGIC.to_vec();
        expected.extend([VERSION, tag]);
        expected.extend(frame_id.to_le_bytes());
        expected.extend((payload.len() as u32 / 2).to_le_bytes());
        let bytes = message.encode_with_id(frame_id);
        assert_eq!(
            hex(&bytes),
            hex(&expected) + payload,
            "tag 0x{tag:02x}: {message:?}"
        );
        assert_eq!(
            decode_frame(&bytes).as_ref(),
            Ok(message),
            "tag 0x{tag:02x}"
        );
    }
}
