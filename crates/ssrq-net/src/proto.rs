//! The message layer: every frame a coordinator and a shard server can
//! exchange, with exact hand-written codecs.
//!
//! Codecs are **bit-exact**: `decode(encode(x)) == x` for every
//! representable value (scores travel as IEEE-754 bit patterns), and
//! re-encoding a decoded message reproduces the original bytes —
//! exclusion sets are sorted at encode time so the encoding is canonical.
//! Decoding never panics; malformed input yields a typed
//! [`WireError`].

use crate::wire::{frame_with_id, Reader, WireError, Writer};
use ssrq_core::{Algorithm, QueryRequest, QueryResult, QueryStats, RankedUser, UserId};
use ssrq_obs::{HistogramSnapshot, MetricSample, MetricValue, ObsReport, QuerySpans, SpanRecord};
use ssrq_shard::{ShardOutcome, ShardStats};
use ssrq_spatial::{Point, Rect};
use std::time::Duration;

/// What a shard server reports about itself in the handshake (and on
/// [`Message::Refresh`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardInfo {
    /// This server's shard index.
    pub shard: u32,
    /// Total number of shards in the deployment.
    pub shards: u32,
    /// Users in the (replicated) social graph.
    pub user_count: u64,
    /// Users located on this shard.
    pub located: u64,
    /// Bounding rectangle of this shard's resident locations (`None` when
    /// no resident is located) — what the coordinator's pruning runs on.
    pub rect: Option<Rect>,
    /// The deployment-global spatial normalization constant.
    pub spatial_norm: f64,
    /// The deployment-global social normalization constant.
    pub social_norm: f64,
}

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
    fn tag(self) -> u8 {
        match self {
            FailureKind::InvalidRequest => 0,
            FailureKind::UnknownUser => 1,
            // 2 is unassigned.
            FailureKind::MissingIndex => 3,
            FailureKind::Internal => 4,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, WireError> {
        Ok(match tag {
            0 => FailureKind::InvalidRequest,
            1 => FailureKind::UnknownUser,
            3 => FailureKind::MissingIndex,
            4 => FailureKind::Internal,
            t => return Err(WireError::Invalid(format!("failure kind {t}"))),
        })
    }

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
    /// Client → server handshake; answered with [`Message::Info`].
    Hello,
    /// The server's self-description (handshake and refresh response).
    Info(ShardInfo),
    /// Run a bounded top-k over this shard's residents; answered with
    /// [`Message::Answer`] or [`Message::Fail`].
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
    /// Ask for a user's stored location (origin resolution); answered
    /// with [`Message::Located`].
    Locate(UserId),
    /// Response to [`Message::Locate`].
    Located(Option<Point>),
    /// Report a user's new location (`None` removes it).  Every server of
    /// the deployment receives the broadcast; each adopts or drops the
    /// user per its own replicated assignment and answers
    /// [`Message::Relocated`].
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
    /// occupancy) after migrations; answered with [`Message::Info`].
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
            Message::Hello => 0x01,
            Message::Info(_) => 0x02,
            Message::Query { .. } => 0x03,
            Message::Answer(_) => 0x04,
            Message::Locate(_) => 0x05,
            Message::Located(_) => 0x06,
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
            Message::Hello
            | Message::ListLocated
            | Message::Refresh
            | Message::Ping
            | Message::Pong
            | Message::Shutdown
            | Message::Ok
            | Message::MetricsRequest => {}
            Message::Info(info) => encode_shard_info(&mut w, info),
            Message::Query { request, trace_id } => {
                encode_request(&mut w, request);
                // The trace id is an optional trailing field: 0 (untraced)
                // is expressed by omission, which keeps the encoding
                // canonical and untraced frames 8 bytes shorter.
                if *trace_id != 0 {
                    w.u64(*trace_id);
                }
            }
            Message::Answer(result) => encode_result(&mut w, result),
            Message::Locate(user) => w.u32(*user),
            Message::Located(location) => w.opt(*location, encode_point),
            Message::Relocate { user, location } => {
                w.u32(*user);
                w.opt(*location, encode_point);
            }
            Message::Relocated { adopted } => w.bool(*adopted),
            Message::LocatedUsers(users) => {
                w.u32(users.len() as u32);
                for &(user, p) in users {
                    w.u32(user);
                    encode_point(&mut w, p);
                }
            }
            Message::SetAssignment { cell_to_shard } => {
                w.u32(cell_to_shard.len() as u32);
                for &s in cell_to_shard {
                    w.u32(s);
                }
            }
            Message::Fail { kind, message } => {
                w.u8(kind.tag());
                w.str(message);
            }
            Message::MetricsReport(report) => encode_obs_report(&mut w, report),
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
            0x01 => Message::Hello,
            0x02 => Message::Info(decode_shard_info(&mut r)?),
            0x03 => {
                let request = decode_request(&mut r)?;
                // Optional trailing trace id: absent on untraced frames,
                // meaning 0.
                let trace_id = if r.remaining() > 0 { r.u64()? } else { 0 };
                Message::Query { request, trace_id }
            }
            0x04 => Message::Answer(decode_result(&mut r)?),
            0x05 => Message::Locate(r.u32()?),
            0x06 => Message::Located(r.opt(decode_point)?),
            0x07 => Message::Relocate {
                user: r.u32()?,
                location: r.opt(decode_point)?,
            },
            0x08 => Message::Relocated { adopted: r.bool()? },
            0x09 => Message::ListLocated,
            0x0A => {
                let n = r.u32()? as usize;
                let mut users = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let user = r.u32()?;
                    users.push((user, decode_point(&mut r)?));
                }
                Message::LocatedUsers(users)
            }
            0x0B => {
                let n = r.u32()? as usize;
                let mut cell_to_shard = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    cell_to_shard.push(r.u32()?);
                }
                Message::SetAssignment { cell_to_shard }
            }
            0x0C => Message::Refresh,
            0x0D => Message::Fail {
                kind: FailureKind::from_tag(r.u8()?)?,
                message: r.str()?,
            },
            0x0E => Message::Ping,
            0x0F => Message::Pong,
            0x10 => Message::Shutdown,
            0x11 => Message::Ok,
            0x13 => Message::MetricsRequest,
            0x14 => Message::MetricsReport(decode_obs_report(&mut r)?),
            t => return Err(WireError::UnknownMessage(t)),
        };
        r.finish()?;
        Ok(message)
    }
}

fn encode_point(w: &mut Writer, p: Point) {
    w.f64(p.x);
    w.f64(p.y);
}

fn decode_point(r: &mut Reader<'_>) -> Result<Point, WireError> {
    Ok(Point {
        x: r.f64()?,
        y: r.f64()?,
    })
}

fn encode_rect(w: &mut Writer, rect: Rect) {
    encode_point(w, rect.min);
    encode_point(w, rect.max);
}

fn decode_rect(r: &mut Reader<'_>) -> Result<Rect, WireError> {
    Ok(Rect {
        min: decode_point(r)?,
        max: decode_point(r)?,
    })
}

fn encode_shard_info(w: &mut Writer, info: &ShardInfo) {
    w.u32(info.shard);
    w.u32(info.shards);
    w.u64(info.user_count);
    w.u64(info.located);
    w.opt(info.rect, encode_rect);
    w.f64(info.spatial_norm);
    w.f64(info.social_norm);
}

fn decode_shard_info(r: &mut Reader<'_>) -> Result<ShardInfo, WireError> {
    Ok(ShardInfo {
        shard: r.u32()?,
        shards: r.u32()?,
        user_count: r.u64()?,
        located: r.u64()?,
        rect: r.opt(decode_rect)?,
        spatial_norm: r.f64()?,
        social_norm: r.f64()?,
    })
}

/// Encodes a [`QueryRequest`] payload.  Canonical: the exclusion set is
/// written in ascending user-id order, so equal requests encode to equal
/// bytes.
pub fn encode_request(w: &mut Writer, request: &QueryRequest) {
    w.u32(request.user());
    w.u64(request.k() as u64);
    w.f64(request.alpha());
    // The marker byte once told a paper algorithm (0) from a name only the
    // server's registry knew (1).  Only 0 is left, but it stays on the
    // wire so request bytes, and every byte count and digest over them,
    // are unchanged.
    w.u8(0);
    w.str(request.algorithm().name());
    w.opt(request.origin(), encode_point);
    w.opt(request.within(), encode_rect);
    let mut excluded: Vec<UserId> = request.excluded().iter().copied().collect();
    excluded.sort_unstable();
    w.u32(excluded.len() as u32);
    for user in excluded {
        w.u32(user);
    }
    w.opt(request.max_score(), |w, v| w.f64(v));
}

/// Decodes a [`QueryRequest`] payload.
///
/// The request is rebuilt **unvalidated** — exactly like the in-process
/// [`build_unvalidated`](ssrq_core::QueryRequestBuilder::build_unvalidated)
/// path — because the executing engine re-validates defensively; a decoded
/// garbage request produces a typed engine error, never undefined state.
///
/// # Errors
///
/// [`WireError`] for malformed bytes, including an algorithm marker other
/// than 0 and a name that is neither a paper algorithm nor `AUTO`.
pub fn decode_request(r: &mut Reader<'_>) -> Result<QueryRequest, WireError> {
    let user = r.u32()?;
    let k = r.usize()?;
    let alpha = r.f64()?;
    let marker = r.u8()?;
    if marker != 0 {
        return Err(WireError::Invalid(format!("algorithm marker {marker}")));
    }
    let name = r.str()?;
    // `AUTO` crosses the wire like the twelve paper methods; the server's
    // own engine plans it.
    let algorithm = Algorithm::from_name(&name)
        .ok_or_else(|| WireError::Invalid(format!("unknown algorithm {name:?}")))?;
    let origin = r.opt(decode_point)?;
    let within = r.opt(decode_rect)?;
    let n = r.u32()? as usize;
    let mut excluded = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        excluded.push(r.u32()?);
    }
    let max_score = r.opt(|r| r.f64())?;
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

/// Encodes a [`QueryStats`] payload (all counters, `runtime` as
/// nanoseconds).
pub fn encode_stats(w: &mut Writer, stats: &QueryStats) {
    w.u64(stats.vertex_pops as u64);
    w.u64(stats.social_pops as u64);
    w.u64(stats.spatial_pops as u64);
    w.u64(stats.index_pops as u64);
    w.u64(stats.evaluated_users as u64);
    w.u64(stats.distance_calls as u64);
    w.u64(stats.cache_hits as u64);
    w.u64(stats.delayed_reinsertions as u64);
    w.u64(stats.relaxed_edges as u64);
    w.u64(stats.streamable_results as u64);
    w.u64(stats.bytes_sent as u64);
    w.u64(stats.bytes_received as u64);
    w.u64(stats.wire_round_trips as u64);
    w.u64(stats.runtime.as_nanos() as u64);
}

/// Decodes a [`QueryStats`] payload.
///
/// # Errors
///
/// [`WireError`] for truncated input or counters exceeding this
/// platform's `usize`.
pub fn decode_stats(r: &mut Reader<'_>) -> Result<QueryStats, WireError> {
    Ok(QueryStats {
        vertex_pops: r.usize()?,
        social_pops: r.usize()?,
        spatial_pops: r.usize()?,
        index_pops: r.usize()?,
        evaluated_users: r.usize()?,
        distance_calls: r.usize()?,
        cache_hits: r.usize()?,
        delayed_reinsertions: r.usize()?,
        relaxed_edges: r.usize()?,
        streamable_results: r.usize()?,
        bytes_sent: r.usize()?,
        bytes_received: r.usize()?,
        wire_round_trips: r.usize()?,
        runtime: Duration::from_nanos(r.u64()?),
    })
}

fn encode_ranked(w: &mut Writer, entry: &RankedUser) {
    w.u32(entry.user);
    w.f64(entry.score);
    w.f64(entry.social);
    w.f64(entry.spatial);
}

fn decode_ranked(r: &mut Reader<'_>) -> Result<RankedUser, WireError> {
    Ok(RankedUser {
        user: r.u32()?,
        score: r.f64()?,
        social: r.f64()?,
        spatial: r.f64()?,
    })
}

/// Encodes a [`QueryResult`] payload.
pub fn encode_result(w: &mut Writer, result: &QueryResult) {
    w.u64(result.k as u64);
    w.bool(result.degraded);
    encode_stats(w, &result.stats);
    w.u32(result.ranked.len() as u32);
    for entry in &result.ranked {
        encode_ranked(w, entry);
    }
}

/// Decodes a [`QueryResult`] payload.
///
/// # Errors
///
/// [`WireError`] for malformed bytes.
pub fn decode_result(r: &mut Reader<'_>) -> Result<QueryResult, WireError> {
    let k = r.usize()?;
    let degraded = r.bool()?;
    let stats = decode_stats(r)?;
    let n = r.u32()? as usize;
    let mut ranked = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        ranked.push(decode_ranked(r)?);
    }
    Ok(QueryResult {
        ranked,
        k,
        degraded,
        stats,
    })
}

/// Encodes a [`ShardStats`] payload (per-shard outcomes + merged
/// aggregate) — what a coordinator persists or forwards for observability.
pub fn encode_shard_stats(w: &mut Writer, stats: &ShardStats) {
    w.u32(stats.per_shard.len() as u32);
    for outcome in &stats.per_shard {
        match outcome {
            ShardOutcome::Executed(s) => {
                w.u8(0);
                encode_stats(w, s);
            }
            ShardOutcome::Skipped { lower_bound } => {
                w.u8(1);
                w.f64(*lower_bound);
            }
            ShardOutcome::Failed { shard, detail } => {
                w.u8(2);
                w.str(shard);
                w.str(detail);
            }
        }
    }
    encode_stats(w, &stats.merged);
    w.u64(stats.gather_runtime.as_nanos() as u64);
}

/// Decodes a [`ShardStats`] payload.
///
/// # Errors
///
/// [`WireError`] for malformed bytes, including an unknown outcome tag.
pub fn decode_shard_stats(r: &mut Reader<'_>) -> Result<ShardStats, WireError> {
    let n = r.u32()? as usize;
    let mut per_shard = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        per_shard.push(match r.u8()? {
            0 => ShardOutcome::Executed(decode_stats(r)?),
            1 => ShardOutcome::Skipped {
                lower_bound: r.f64()?,
            },
            2 => ShardOutcome::Failed {
                shard: r.str()?,
                detail: r.str()?,
            },
            t => return Err(WireError::Invalid(format!("shard outcome tag {t}"))),
        });
    }
    let merged = decode_stats(r)?;
    let gather_runtime = Duration::from_nanos(r.u64()?);
    Ok(ShardStats {
        per_shard,
        merged,
        gather_runtime,
    })
}

fn encode_metric_sample(w: &mut Writer, sample: &MetricSample) {
    w.str(&sample.name);
    w.u32(sample.labels.len() as u32);
    for (key, value) in &sample.labels {
        w.str(key);
        w.str(value);
    }
    match &sample.value {
        MetricValue::Counter(v) => {
            w.u8(0);
            w.u64(*v);
        }
        MetricValue::Gauge(v) => {
            w.u8(1);
            w.f64(*v);
        }
        MetricValue::Histogram(snapshot) => {
            w.u8(2);
            w.u32(snapshot.buckets.len() as u32);
            for &(index, count) in &snapshot.buckets {
                w.u8(index);
                w.u64(count);
            }
            w.u64(snapshot.sum);
            w.u64(snapshot.count);
        }
    }
}

fn decode_metric_sample(r: &mut Reader<'_>) -> Result<MetricSample, WireError> {
    let name = r.str()?;
    let n = r.u32()? as usize;
    let mut labels = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let key = r.str()?;
        labels.push((key, r.str()?));
    }
    let value = match r.u8()? {
        0 => MetricValue::Counter(r.u64()?),
        1 => MetricValue::Gauge(r.f64()?),
        2 => {
            let n = r.u32()? as usize;
            let mut buckets = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let index = r.u8()?;
                buckets.push((index, r.u64()?));
            }
            MetricValue::Histogram(HistogramSnapshot {
                buckets,
                sum: r.u64()?,
                count: r.u64()?,
            })
        }
        t => return Err(WireError::Invalid(format!("metric value tag {t}"))),
    };
    Ok(MetricSample {
        name,
        labels,
        value,
    })
}

fn encode_query_spans(w: &mut Writer, spans: &QuerySpans) {
    w.u64(spans.trace_id);
    w.u32(spans.spans.len() as u32);
    for span in &spans.spans {
        w.str(&span.name);
        w.opt(span.parent, |w, p| w.u32(p));
        w.u64(span.start_ns);
        w.u64(span.duration_ns);
    }
}

fn decode_query_spans(r: &mut Reader<'_>) -> Result<QuerySpans, WireError> {
    let trace_id = r.u64()?;
    let n = r.u32()? as usize;
    let mut spans = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        spans.push(SpanRecord {
            name: r.str()?,
            parent: r.opt(|r| r.u32())?,
            start_ns: r.u64()?,
            duration_ns: r.u64()?,
        });
    }
    Ok(QuerySpans { trace_id, spans })
}

/// Encodes an [`ObsReport`] payload — a process's metric snapshot plus
/// its recent span trees, exactly as recorded (`u64` counts stay exact).
pub fn encode_obs_report(w: &mut Writer, report: &ObsReport) {
    w.u32(report.metrics.len() as u32);
    for sample in &report.metrics {
        encode_metric_sample(w, sample);
    }
    w.u32(report.spans.len() as u32);
    for spans in &report.spans {
        encode_query_spans(w, spans);
    }
}

/// Decodes an [`ObsReport`] payload.
///
/// # Errors
///
/// [`WireError`] for malformed bytes, including an unknown metric value
/// tag.
pub fn decode_obs_report(r: &mut Reader<'_>) -> Result<ObsReport, WireError> {
    let n = r.u32()? as usize;
    let mut metrics = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        metrics.push(decode_metric_sample(r)?);
    }
    let n = r.u32()? as usize;
    let mut spans = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        spans.push(decode_query_spans(r)?);
    }
    Ok(ObsReport { metrics, spans })
}

#[cfg(test)]
mod tests {
    use super::*;

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
            Message::Hello,
            Message::ListLocated,
            Message::Refresh,
            Message::Ping,
            Message::Pong,
            Message::Shutdown,
            Message::Ok,
            Message::Locate(42),
            Message::Located(None),
            Message::Located(Some(Point::new(1.5, -2.5))),
            Message::Relocated { adopted: true },
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
        let decode = |payload: &[u8]| decode_request(&mut Reader::new(payload));
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
        registry.gauge("depth", &[]).set(-0.5);
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
    }

    #[test]
    fn shard_stats_round_trip() {
        let stats = ShardStats::new(
            vec![
                ShardOutcome::Executed(QueryStats {
                    evaluated_users: 11,
                    ..QueryStats::default()
                }),
                ShardOutcome::Skipped {
                    lower_bound: f64::INFINITY,
                },
                ShardOutcome::Failed {
                    shard: "unix:/tmp/s2.sock".into(),
                    detail: "connection reset".into(),
                },
            ],
            Duration::from_millis(3),
        );
        let mut w = Writer::new();
        encode_shard_stats(&mut w, &stats);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        let decoded = decode_shard_stats(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded, stats);
    }

    #[test]
    fn unknown_tags_and_truncations_are_typed_errors() {
        assert!(matches!(
            Message::decode(0xEE, &[]),
            Err(WireError::UnknownMessage(0xEE))
        ));
        let bytes = Message::Locate(5).encode();
        let payload = &bytes[crate::wire::HEADER_LEN..];
        assert!(matches!(
            Message::decode(0x05, &payload[..2]),
            Err(WireError::Truncated { .. })
        ));
        // Trailing garbage after a well-formed payload is rejected.
        let mut padded = payload.to_vec();
        padded.push(0);
        assert!(matches!(
            Message::decode(0x05, &padded),
            Err(WireError::TrailingBytes(1))
        ));
    }
}
