//! The message layer: every frame a coordinator and a shard server can
//! exchange, and the layout of every type a frame carries.
//!
//! Each type's layout is written once, as one `Wire` impl that both
//! encodes and decodes it: a record lists its fields in wire order
//! (`record!`), and only [`FailureKind`], `MetricValue` and
//! [`QueryRequest`] need a hand-written impl.  Codecs are **bit-exact**:
//! `decode(encode(x)) == x` for every representable value (scores travel
//! as IEEE-754 bit patterns), and re-encoding a decoded message reproduces
//! the original bytes — exclusion sets are sorted at encode time so the
//! encoding is canonical.  Decoding never panics; malformed input yields a
//! typed [`WireError`].

use crate::wire::{frame_with_id, Reader, Wire, WireError, Writer};
use ssrq_core::{Algorithm, QueryRequest, QueryResult, QueryStats, RankedUser, UserId};
use ssrq_obs::{HistogramSnapshot, MetricSample, MetricValue, ObsReport, QuerySpans, SpanRecord};
use ssrq_spatial::{Point, Rect};

/// What a shard server reports about itself in the handshake (and on
/// [`Message::Refresh`]): the shard tier's [`ShardInfo`].
pub use ssrq_shard::ShardInfo;

/// Why a shard server refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The request failed validation.
    InvalidRequest,
    /// The named user does not exist.
    UnknownUser,
    /// The algorithm needs an index the server was not built with.
    MissingIndex,
    /// Any other server-side failure.
    Internal,
}

impl FailureKind {
    /// Classifies a [`CoreError`](ssrq_core::CoreError) for the wire.
    pub fn of(error: &ssrq_core::CoreError) -> Self {
        use ssrq_core::CoreError;
        match error {
            CoreError::InvalidParameter(_) => FailureKind::InvalidRequest,
            CoreError::UnknownUser(_) => FailureKind::UnknownUser,
            CoreError::MissingIndex(_) => FailureKind::MissingIndex,
            _ => FailureKind::Internal,
        }
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            FailureKind::InvalidRequest => "invalid request",
            FailureKind::UnknownUser => "unknown user",
            FailureKind::MissingIndex => "missing index",
            FailureKind::Internal => "internal error",
        };
        f.write_str(name)
    }
}

/// One protocol message (= one frame).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// The server's self-description, the answer to [`Message::Refresh`].
    Info(ShardInfo),
    /// Run a bounded top-k over this shard's residents; answered with
    /// [`Message::Answer`], [`Message::AnswerFrom`] (a request without an
    /// origin, put to the shard that holds the query user) or
    /// [`Message::Fail`].
    Query {
        /// The query to run.
        request: QueryRequest,
        /// End-to-end trace id correlating this query's spans across the
        /// coordinator and every shard it touches.  `0` means *untraced*:
        /// it is never emitted on the wire, and a frame without the field
        /// decodes to `0`.
        trace_id: u64,
    },
    /// A shard's exact top-k over its residents.
    Answer(QueryResult),
    /// A shard's exact top-k over its residents, evaluated from the query
    /// user's location as this shard stores it: the answer to a
    /// [`Message::Query`] that carried no origin, sent by the shard that
    /// holds the user.  A shard that does not hold the user answers such a
    /// query with a plain [`Message::Answer`].
    AnswerFrom {
        /// The origin the shard resolved from its own copy.
        origin: Point,
        /// The answer evaluated from `origin`.
        result: QueryResult,
    },
    /// Report a user's new location (`None` removes it).  The receiving
    /// server adopts or drops the user per its own replicated assignment
    /// and answers [`Message::Relocated`].  The coordinator sends it to the
    /// user's cached owner first, and to the other servers unless that
    /// one's answer settles the report: it held the user, and adopted it
    /// again or the report is a removal.
    Relocate {
        /// The reported user.
        user: UserId,
        /// The new location, or `None` to remove.
        location: Option<Point>,
    },
    /// Response to [`Message::Relocate`].
    Relocated {
        /// `true` when this server now hosts the user's location.
        adopted: bool,
        /// `true` when this server hosted the user's location before the
        /// relocation.
        held: bool,
    },
    /// Ask for every located resident (rebalance survey); answered with
    /// [`Message::LocatedUsers`].
    ListLocated,
    /// Response to [`Message::ListLocated`].
    LocatedUsers(Vec<(UserId, Point)>),
    /// Install a repacked cell→shard map (spatial partitioning only);
    /// answered with [`Message::Ok`] or [`Message::Fail`].
    SetAssignment {
        /// The new cell→shard map, row-major over the tiling.
        cell_to_shard: Vec<u32>,
    },
    /// Re-derive and report this server's [`ShardInfo`] (tightened rect,
    /// occupancy); answered with [`Message::Info`].  The coordinator's
    /// handshake sends it too.
    Refresh,
    /// Typed server-side refusal.
    Fail {
        /// The failure class.
        kind: FailureKind,
        /// Human-readable detail.
        message: String,
    },
    /// Liveness probe; answered with [`Message::Pong`].
    Ping,
    /// Response to [`Message::Ping`].
    Pong,
    /// Ask the server to exit its accept loop; answered with
    /// [`Message::Ok`].
    Shutdown,
    /// Generic acknowledgement.
    Ok,
    /// Ask the server for its live observability snapshot (metrics
    /// registry + recent span trees); answered with
    /// [`Message::MetricsReport`].
    MetricsRequest,
    /// Response to [`Message::MetricsRequest`].
    MetricsReport(ObsReport),
}

impl Message {
    /// The frame tag of this message.
    pub fn tag(&self) -> u8 {
        match self {
            // 0x01 is unassigned.
            Message::Info(_) => 0x02,
            Message::Query { .. } => 0x03,
            Message::Answer(_) => 0x04,
            Message::Relocate { .. } => 0x07,
            Message::Relocated { .. } => 0x08,
            Message::ListLocated => 0x09,
            Message::LocatedUsers(_) => 0x0A,
            Message::SetAssignment { .. } => 0x0B,
            Message::Refresh => 0x0C,
            Message::Fail { .. } => 0x0D,
            Message::Ping => 0x0E,
            Message::Pong => 0x0F,
            Message::Shutdown => 0x10,
            Message::Ok => 0x11,
            // 0x12 is unassigned.
            Message::MetricsRequest => 0x13,
            Message::MetricsReport(_) => 0x14,
            Message::AnswerFrom { .. } => 0x15,
        }
    }

    /// Wraps a request as an untraced [`Message::Query`] (trace id 0).
    pub fn query(request: QueryRequest) -> Message {
        Message::Query {
            request,
            trace_id: 0,
        }
    }

    /// Encodes the message as one complete frame with frame id 0.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with_id(0)
    }

    /// Encodes the message as one complete frame carrying the given
    /// frame id (a response carries its request's).
    pub fn encode_with_id(&self, frame_id: u32) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Message::ListLocated
            | Message::Refresh
            | Message::Ping
            | Message::Pong
            | Message::Shutdown
            | Message::Ok
            | Message::MetricsRequest => {}
            Message::Info(info) => info.put(&mut w),
            Message::Query { request, trace_id } => {
                request.put(&mut w);
                // The trace id is an optional trailing field: 0 (untraced)
                // is expressed by omission, which keeps the encoding
                // canonical and untraced frames 8 bytes shorter.
                if *trace_id != 0 {
                    w.u64(*trace_id);
                }
            }
            Message::Answer(result) => result.put(&mut w),
            Message::AnswerFrom { origin, result } => {
                origin.put(&mut w);
                result.put(&mut w);
            }
            Message::Relocate { user, location } => {
                user.put(&mut w);
                location.put(&mut w);
            }
            Message::Relocated { adopted, held } => {
                adopted.put(&mut w);
                held.put(&mut w);
            }
            Message::LocatedUsers(users) => users.put(&mut w),
            Message::SetAssignment { cell_to_shard } => cell_to_shard.put(&mut w),
            Message::Fail { kind, message } => {
                kind.put(&mut w);
                message.put(&mut w);
            }
            Message::MetricsReport(report) => report.put(&mut w),
        }
        frame_with_id(self.tag(), frame_id, &w.finish())
    }

    /// Decodes one message from its frame tag and payload.
    ///
    /// # Errors
    ///
    /// [`WireError::UnknownMessage`] for an unknown tag; otherwise
    /// whatever the payload decoder reports (the payload must be consumed
    /// exactly — leftovers are [`WireError::TrailingBytes`]).
    pub fn decode(tag: u8, payload: &[u8]) -> Result<Message, WireError> {
        let mut r = Reader::new(payload);
        let message = match tag {
            0x02 => Message::Info(Wire::get(&mut r)?),
            0x03 => {
                let request = Wire::get(&mut r)?;
                // Optional trailing trace id: absent on untraced frames,
                // meaning 0.
                let trace_id = if r.remaining() > 0 { r.u64()? } else { 0 };
                Message::Query { request, trace_id }
            }
            0x04 => Message::Answer(Wire::get(&mut r)?),
            0x07 => Message::Relocate {
                user: Wire::get(&mut r)?,
                location: Wire::get(&mut r)?,
            },
            0x08 => Message::Relocated {
                adopted: Wire::get(&mut r)?,
                held: Wire::get(&mut r)?,
            },
            0x09 => Message::ListLocated,
            0x0A => Message::LocatedUsers(Wire::get(&mut r)?),
            0x0B => Message::SetAssignment {
                cell_to_shard: Wire::get(&mut r)?,
            },
            0x0C => Message::Refresh,
            0x0D => Message::Fail {
                kind: Wire::get(&mut r)?,
                message: Wire::get(&mut r)?,
            },
            0x0E => Message::Ping,
            0x0F => Message::Pong,
            0x10 => Message::Shutdown,
            0x11 => Message::Ok,
            0x13 => Message::MetricsRequest,
            0x14 => Message::MetricsReport(Wire::get(&mut r)?),
            0x15 => Message::AnswerFrom {
                origin: Wire::get(&mut r)?,
                result: Wire::get(&mut r)?,
            },
            t => return Err(WireError::UnknownMessage(t)),
        };
        r.finish()?;
        Ok(message)
    }
}

/// Implements [`Wire`] for structs whose layout is their fields, listed
/// once each in wire order.  Every field must be listed: the decoder builds
/// the struct from the list.
macro_rules! record {
    ($($ty:ty { $($field:ident),* $(,)? })*) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut Writer) {
                $(self.$field.put(w);)*
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(Self { $($field: Wire::get(r)?,)* })
            }
        }
    )*};
}

record! {
    Point { x, y }
    Rect { min, max }
    ShardInfo { shard, shards, user_count, located, rect, spatial_norm, social_norm }
    RankedUser { user, score, social, spatial }
    QueryStats {
        vertex_pops, social_pops, spatial_pops, index_pops, evaluated_users, distance_calls,
        cache_hits, delayed_reinsertions, relaxed_edges, reverse_settles, reverse_relaxed_edges,
        streamable_results, bytes_sent, bytes_received, wire_round_trips, runtime,
    }
    QueryResult { k, degraded, stats, ranked }
    HistogramSnapshot { buckets, sum, count }
    MetricSample { name, labels, value }
    SpanRecord { name, parent, start_ns, duration_ns }
    QuerySpans { trace_id, spans }
    ObsReport { metrics, spans }
}

impl Wire for FailureKind {
    fn put(&self, w: &mut Writer) {
        w.u8(match self {
            FailureKind::InvalidRequest => 0,
            FailureKind::UnknownUser => 1,
            // 2 is unassigned.
            FailureKind::MissingIndex => 3,
            FailureKind::Internal => 4,
        });
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => FailureKind::InvalidRequest,
            1 => FailureKind::UnknownUser,
            3 => FailureKind::MissingIndex,
            4 => FailureKind::Internal,
            t => return Err(WireError::Invalid(format!("failure kind {t}"))),
        })
    }
}

/// A tag byte, then the value.
impl Wire for MetricValue {
    fn put(&self, w: &mut Writer) {
        match self {
            MetricValue::Counter(v) => {
                w.u8(0);
                v.put(w);
            }
            // 1 is unassigned.
            MetricValue::Histogram(snapshot) => {
                w.u8(2);
                snapshot.put(w);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => MetricValue::Counter(Wire::get(r)?),
            2 => MetricValue::Histogram(Wire::get(r)?),
            t => return Err(WireError::Invalid(format!("metric value tag {t}"))),
        })
    }
}

/// Canonical: the exclusion set is written in ascending user-id order, so
/// equal requests encode to equal bytes.
///
/// The request is read back **unvalidated** — exactly like the in-process
/// [`build_unvalidated`](ssrq_core::QueryRequestBuilder::build_unvalidated)
/// path — because the executing engine re-validates defensively; a decoded
/// garbage request produces a typed engine error, never undefined state.
/// An algorithm marker other than 0, and a name that is neither a paper
/// algorithm nor `AUTO`, are [`WireError::Invalid`].
impl Wire for QueryRequest {
    fn put(&self, w: &mut Writer) {
        self.user().put(w);
        self.k().put(w);
        self.alpha().put(w);
        // The marker byte once told a paper algorithm (0) from a name only
        // the server's registry knew (1).  Only 0 is left, but it stays on
        // the wire so request bytes, and every byte count and digest over
        // them, are unchanged.
        w.u8(0);
        w.str(self.algorithm().name());
        self.origin().put(w);
        self.within().put(w);
        let mut excluded: Vec<UserId> = self.excluded().iter().copied().collect();
        excluded.sort_unstable();
        excluded.put(w);
        self.max_score().put(w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let user = Wire::get(r)?;
        let k = Wire::get(r)?;
        let alpha = Wire::get(r)?;
        let marker = r.u8()?;
        if marker != 0 {
            return Err(WireError::Invalid(format!("algorithm marker {marker}")));
        }
        let name = r.str()?;
        // `AUTO` crosses the wire like the twelve paper methods; the
        // server's own engine plans it.
        let algorithm = Algorithm::from_name(&name)
            .ok_or_else(|| WireError::Invalid(format!("unknown algorithm {name:?}")))?;
        let origin: Option<Point> = Wire::get(r)?;
        let within: Option<Rect> = Wire::get(r)?;
        let excluded: Vec<UserId> = Wire::get(r)?;
        let max_score: Option<f64> = Wire::get(r)?;
        let mut builder = QueryRequest::for_user(user)
            .k(k)
            .alpha(alpha)
            .algorithm(algorithm)
            .exclude(excluded);
        if let Some(origin) = origin {
            builder = builder.origin(origin);
        }
        if let Some(within) = within {
            builder = builder.within(within);
        }
        if let Some(max_score) = max_score {
            builder = builder.max_score(max_score);
        }
        Ok(builder.build_unvalidated())
    }
}

/// Appends a [`QueryRequest`] in its wire layout (the payload of an
/// untraced [`Message::Query`]).
pub fn encode_request(w: &mut Writer, request: &QueryRequest) {
    request.put(w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn round_trip(message: Message) {
        let bytes = message.encode();
        let header = crate::wire::parse_header(&bytes).unwrap();
        assert_eq!(
            header.payload_len as usize,
            bytes.len() - crate::wire::HEADER_LEN
        );
        assert_eq!(header.frame_id, 0);
        let decoded = Message::decode(header.tag, &bytes[crate::wire::HEADER_LEN..]).unwrap();
        assert_eq!(decoded, message);
        // Canonical: re-encoding the decoded message reproduces the bytes.
        assert_eq!(decoded.encode(), bytes);
        // Frame ids change only the header.
        let with_id = message.encode_with_id(77);
        assert_eq!(crate::wire::parse_header(&with_id).unwrap().frame_id, 77);
        assert_eq!(
            with_id[crate::wire::HEADER_LEN..],
            bytes[crate::wire::HEADER_LEN..]
        );
    }

    #[test]
    fn every_plain_message_round_trips() {
        for message in [
            Message::ListLocated,
            Message::Refresh,
            Message::Ping,
            Message::Pong,
            Message::Shutdown,
            Message::Ok,
            Message::Relocated {
                adopted: true,
                held: false,
            },
            Message::Relocated {
                adopted: false,
                held: true,
            },
            Message::Relocate {
                user: 7,
                location: None,
            },
            Message::LocatedUsers(vec![(1, Point::new(0.0, -0.0)), (2, Point::new(3.0, 4.0))]),
            Message::SetAssignment {
                cell_to_shard: vec![0, 1, 1, 0],
            },
            Message::Fail {
                kind: FailureKind::MissingIndex,
                message: "no index \"X\"".into(),
            },
        ] {
            round_trip(message);
        }
    }

    #[test]
    fn request_messages_round_trip_with_every_option() {
        let request = QueryRequest::for_user(9)
            .k(5)
            .alpha(0.62)
            .algorithm(Algorithm::TsaCh)
            .origin(Point::new(0.25, -0.75))
            .within(Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)))
            .exclude([31, 4, 15])
            .max_score(0.5)
            .build()
            .unwrap();
        round_trip(Message::query(request.clone()));
        round_trip(Message::Query {
            request,
            trace_id: 0xDEAD_BEEF_0000_0001,
        });
    }

    #[test]
    fn algorithms_cross_the_wire_by_name_behind_a_zero_marker() {
        // All thirteen values round-trip.
        for algorithm in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
            round_trip(Message::query(
                QueryRequest::for_user(1)
                    .algorithm(algorithm)
                    .build_unvalidated(),
            ));
        }

        // The request encoding is pinned byte for byte.
        let request = QueryRequest::for_user(7)
            .k(3)
            .alpha(0.5)
            .algorithm(Algorithm::Sfa)
            .exclude([2])
            .build_unvalidated();
        let mut w = Writer::new();
        encode_request(&mut w, &request);
        let bytes = w.finish();
        #[rustfmt::skip]
        let pinned: &[u8] = &[
            7, 0, 0, 0,                         // user
            3, 0, 0, 0, 0, 0, 0, 0,             // k
            0, 0, 0, 0, 0, 0, 0xE0, 0x3F,       // alpha = 0.5
            0,                                  // algorithm marker
            3, 0, 0, 0, b'S', b'F', b'A',       // algorithm name
            0,                                  // no origin
            0,                                  // no window
            1, 0, 0, 0, 2, 0, 0, 0,             // excluded: [2]
            0,                                  // no max_score
        ];
        assert_eq!(bytes, pinned);

        // Any other marker, and any unknown name, is a typed error.
        let marker_at = 4 + 8 + 8;
        let decode = |payload: &[u8]| QueryRequest::get(&mut Reader::new(payload));
        for marker in [1u8, 2, 0xFF] {
            let mut bad = bytes.clone();
            bad[marker_at] = marker;
            assert!(matches!(decode(&bad), Err(WireError::Invalid(_))));
        }
        let mut bad = bytes.clone();
        bad[marker_at + 5..marker_at + 8].copy_from_slice(b"XYZ");
        assert!(matches!(decode(&bad), Err(WireError::Invalid(_))));
    }

    #[test]
    fn untraced_queries_encode_byte_identically_to_the_pre_tracing_format() {
        let request = QueryRequest::for_user(3).k(4).build_unvalidated();
        // `Message::query` (trace id 0) must not grow the payload: the
        // trace id is expressed by omission.
        let untraced = Message::query(request.clone()).encode();
        let mut w = Writer::new();
        encode_request(&mut w, &request);
        let expected = frame_with_id(0x03, 0, &w.finish());
        assert_eq!(untraced, expected);
        // A traced frame is exactly 8 bytes longer.
        let traced = Message::Query {
            request,
            trace_id: 7,
        }
        .encode();
        assert_eq!(traced.len(), untraced.len() + 8);
    }

    #[test]
    fn metrics_messages_round_trip() {
        round_trip(Message::MetricsRequest);
        round_trip(Message::MetricsReport(ObsReport::default()));
        let registry = ssrq_obs::Registry::new();
        registry.counter("q_total", &[("shard", "0")]).add(5);
        registry.counter("errors_total", &[]).add(u64::MAX);
        let h = registry.histogram("lat_ns", &[("algorithm", "ais")]);
        h.observe(0);
        h.observe(17);
        h.observe(u64::MAX);
        let report = ObsReport {
            metrics: registry.snapshot(),
            spans: vec![QuerySpans {
                trace_id: 9,
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
        round_trip(Message::MetricsReport(report));
    }

    #[test]
    fn answers_round_trip_including_empty_and_degraded() {
        let stats = QueryStats {
            vertex_pops: 3,
            relaxed_edges: 101,
            bytes_sent: 17,
            runtime: Duration::from_micros(421),
            ..QueryStats::default()
        };
        round_trip(Message::Answer(QueryResult {
            ranked: vec![RankedUser {
                user: 3,
                score: 0.125,
                social: 0.0625,
                spatial: f64::MIN_POSITIVE,
            }],
            k: 8,
            degraded: true,
            stats,
        }));
        round_trip(Message::Answer(QueryResult {
            ranked: vec![],
            k: 1,
            degraded: false,
            stats: QueryStats::default(),
        }));
        round_trip(Message::AnswerFrom {
            origin: Point::new(0.25, -0.0),
            result: QueryResult {
                ranked: vec![],
                k: 3,
                degraded: false,
                stats,
            },
        });
    }

    #[test]
    fn unknown_tags_and_truncations_are_typed_errors() {
        assert!(matches!(
            Message::decode(0xEE, &[]),
            Err(WireError::UnknownMessage(0xEE))
        ));
        // The retired `Hello` and `Locate`/`Located` tags are unknown now.
        for retired in [0x01, 0x05, 0x06] {
            assert_eq!(
                Message::decode(retired, &[]),
                Err(WireError::UnknownMessage(retired))
            );
        }
        let relocate = Message::Relocate {
            user: 5,
            location: None,
        };
        let bytes = relocate.encode();
        let payload = &bytes[crate::wire::HEADER_LEN..];
        assert!(matches!(
            Message::decode(relocate.tag(), &payload[..2]),
            Err(WireError::Truncated { .. })
        ));
        // Trailing garbage after a well-formed payload is rejected.
        let mut padded = payload.to_vec();
        padded.push(0);
        assert!(matches!(
            Message::decode(relocate.tag(), &padded),
            Err(WireError::TrailingBytes(1))
        ));
    }
}
