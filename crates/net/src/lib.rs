//! # pbcd-net
//!
//! Networked dissemination for the PBCD workspace: an **untrusted broker**
//! that stores and fans out broadcast containers over real TCP sockets,
//! plus the client endpoint publishers and subscribers speak to it.
//!
//! The paper's central property makes this safe: a broadcast container —
//! skeleton, segment tags, authenticated ciphertexts and the public
//! ACV-BGKM values — reveals nothing to non-qualified parties, so the
//! machine moving those bytes needs no trust at all. Registration (the
//! OCBE flow that delivers CSSs) stays out-of-band between subscriber and
//! publisher; only dissemination rides the broker. This mirrors the
//! deployment model of confidentiality-preserving pub/sub: an
//! honest-but-curious (or compromised) relay learns exactly what a wire
//! tap would.
//!
//! * [`frame`] — the framed protocol (`Hello`, `Publish`, `PublishSigned`,
//!   `Subscribe`, `Deliver`, `ListConfigs`, `Configs`, `Ack`, `Bye`,
//!   `Error`, `Reject`, `StatsRequest`/`StatsResponse`, `PeerHello`,
//!   `Relay`, `RelayCatchUp`) with strict, non-panicking codecs under one
//!   protocol version,
//! * [`auth`] — publisher authentication: Schnorr verification of signed
//!   publishes against a configured key map (verification halves only),
//! * [`broker`] — the accept-loop broker with an event-driven I/O plane:
//!   one admission path for every container-bearing frame (typed,
//!   non-fatal refusals), retained history per document, concurrent
//!   fan-out through per-subscriber bounded queues serviced by a sharded
//!   writer pool, subscriber reads multiplexed onto poll-style reader
//!   shards (an idle subscription costs a socket + queue slot, never a
//!   thread stack), per-connection error isolation, graceful shutdown
//!   joining exactly the pool,
//! * [`store`] — durable, history-capable retention: a checksummed
//!   append-only log of ciphertext containers with crash recovery
//!   (longest-valid-prefix + torn-tail truncation) and compaction,
//! * [`client`] — the synchronous [`BrokerClient`] endpoint,
//! * [`relay`] — the multi-broker dissemination overlay: brokers peer
//!   into trees or meshes over `PeerHello`/`Relay`/`RelayCatchUp`
//!   frames, forwarding the origin's container bytes **verbatim** one
//!   hop at a time (subscribers see byte-identical containers at every
//!   tier; signatures verify at the origin only). Loop suppression is
//!   origin-id + hop-budget with epoch monotonicity as the idempotency
//!   backstop; a newly attached edge cold-starts from its upstream's
//!   retention log before going live,
//! * [`backoff`] — the shared jittered, capped exponential reconnect
//!   policy used by relay links (and available to clients),
//! * **observability** — every broker carries a [`pbcd_telemetry`]
//!   registry: counters, gauges, publish→ack / enqueue→write / store
//!   latency histograms and a wire-level trace ring, scrapeable live over
//!   the socket via `Frame::StatsRequest` ([`BrokerClient::stats`]) or in
//!   process via [`BrokerHandle::metrics`]. The exposition carries
//!   aggregates only — never container bytes or subscriber identities.
//! * [`direct`] — [`RegistrationServer`]/[`RegistrationClient`]: the
//!   length-prefixed request/response transport for the legs that must
//!   *bypass* the broker (registration, issuance). A pure byte pipe — the
//!   typed messages live in `pbcd_core::proto`, so this crate still
//!   structurally cannot reach key material.
//!
//! Everything is plain `std::net`/`std::thread`; the build stays fully
//! offline (no async runtime dependency).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auth;
pub mod backoff;
pub mod broker;
pub mod client;
pub mod direct;
pub mod error;
pub mod frame;
pub(crate) mod io_pool;
pub mod relay;
pub(crate) mod server;
pub mod store;

pub use auth::{AuthOutcome, PublishAuth, PublisherDirectory};
pub use backoff::{Backoff, BackoffConfig};
pub use broker::{Broker, BrokerConfig, BrokerHandle, BrokerStats};
pub use client::{BrokerClient, PublishReceipt};
pub use direct::{RegistrationClient, RegistrationServer};
pub use error::{NetError, RejectReason};
pub use frame::{
    read_frame, write_frame, ConfigSummary, Frame, PeerRole, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
pub use pbcd_telemetry::{Snapshot, TraceEvent, TraceKind};
pub use relay::{relay_verdict, RelayConfig, RelayVerdict};
pub use store::{FsyncPolicy, RecordError, RecoveryReport, RetentionStore, StoredRecord};
