//! Multi-process SSRQ serving over a hand-rolled wire protocol.
//!
//! This crate turns the in-process sharded deployment
//! ([`ssrq_shard::ShardedEngine`]) into a multi-*process* one: each shard
//! runs as its own OS process ([`ShardServer`]) behind a length-prefixed
//! binary frame protocol over Unix-domain or TCP sockets, and a
//! [`RemoteShardedEngine`] coordinator scatter-gathers queries across them.
//! Both deployments are one [`ssrq_shard::Coordinator`] over two links —
//! [`LocalShard`](ssrq_shard::LocalShard)s in process, [`RemoteShard`]s
//! here — so they share the owner table, relocation routing, rebalance,
//! origin resolution, the `f_k`-forwarding scatter loop and the merge, and
//! return the same ranked list.  A [`ShardServer`] answers through a
//! `LocalShard` too.
//!
//! Everything on the wire is hand-written little-endian encoding
//! ([`wire`]): a 14-byte frame header (`b"SSRQ"`, version, message tag,
//! frame id, payload length) followed by the message payload, `f64`s
//! carried as raw IEEE-754 bits so scores and thresholds cross the wire
//! bit-exactly.  No external dependencies.  A connection carries one
//! request at a time, at both ends: a [`ConnectionPool`] hands every
//! concurrent caller a [`ShardClient`] of its own, a [`ShardServer`] runs
//! one thread per connection, and the frame id a response echoes is the
//! check that the two are still in step.  There is one framing:
//! coordinator and servers are built from one commit, and a frame in any
//! other protocol version is refused with a typed
//! [`WireError::UnsupportedVersion`](wire::WireError::UnsupportedVersion).
//!
//! What the multi-process deployment adds over the in-process one is made
//! explicit rather than hidden:
//!
//! * **Failure semantics** — [`FailurePolicy::Fail`](ssrq_shard::FailurePolicy)
//!   (default) turns the first shard failure into a typed [`NetError`];
//!   `Degrade` merges the surviving shards and flags the result
//!   [`degraded`](ssrq_core::QueryResult::degraded).
//! * **Deadlines** — a per-shard round-trip deadline
//!   ([`RemoteEngineBuilder::deadline`]) bounds how long one slow shard
//!   can stall a query: a missed deadline is reported, never retried.
//! * **Wire accounting** — every query's merged
//!   [`QueryStats`](ssrq_core::QueryStats) counts `bytes_sent`,
//!   `bytes_received` and `wire_round_trips` (all zero in-process).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod client;
mod coordinator;
mod error;
pub mod proto;
mod server;
pub mod wire;

pub use client::{ConnectionPool, Endpoint, ShardClient, WireTraffic};
pub use coordinator::{RemoteEngineBuilder, RemoteShard, RemoteShardedEngine};
pub use error::NetError;
pub use proto::{FailureKind, Message, ShardInfo};
pub use server::ShardServer;
