//! Synchronous broker client used by publishers and subscribers.
//!
//! The client speaks the framed protocol over one TCP connection. Because
//! the broker may interleave `Deliver` frames with replies (a fan-out can
//! land between a request and its response), every wait loop parks
//! deliveries in a queue that [`BrokerClient::next_delivery`] drains first.

use crate::error::NetError;
use crate::frame::{
    encode_publish, encode_signed_publish, publish_auth_message, read_frame, write_body,
    write_frame, ConfigSummary, Frame, PeerRole,
};
use pbcd_docs::BroadcastContainer;
use pbcd_group::{CyclicGroup, Signature, SigningKey};
use rand::RngCore;
use std::collections::VecDeque;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Receipt returned by [`BrokerClient::publish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishReceipt {
    /// Epoch of the acknowledged container.
    pub epoch: u64,
    /// Subscribers the broker delivered it to.
    pub fanout: u32,
}

/// Read timeout applied while waiting for the broker's handshake reply —
/// an unresponsive (or hostile) broker cannot hang `connect` forever. It
/// is cleared once the handshake completes, since idling afterwards is
/// legitimate for subscribers.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Most deliveries the client will queue while waiting for a reply (or
/// draining a goodbye); a broker pushing more than this instead of
/// answering is misbehaving, and the client errors rather than buffering
/// unbounded memory on an untrusted peer's say-so.
const MAX_PENDING_DELIVERIES: usize = 1024;

/// A connected protocol endpoint.
pub struct BrokerClient {
    stream: TcpStream,
    pending: VecDeque<BroadcastContainer>,
}

impl BrokerClient {
    /// Connects, handshakes (`Hello` both ways) and returns the client.
    /// The handshake wait is bounded (10 s); afterwards reads block
    /// indefinitely unless [`Self::set_read_timeout`] is set.
    pub fn connect(addr: impl ToSocketAddrs, role: PeerRole) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
        let mut client = Self {
            stream,
            pending: VecDeque::new(),
        };
        client.send(&Frame::Hello { role })?;
        let reply = client.recv()?;
        let _ = client.stream.set_read_timeout(None);
        match reply {
            Frame::Hello {
                role: PeerRole::Broker,
            } => Ok(client),
            Frame::Error { message } => Err(NetError::Protocol(message)),
            other => Err(NetError::protocol(format!(
                "expected broker Hello, got {other:?}"
            ))),
        }
    }

    /// Publishes a container unsigned; blocks until the broker
    /// acknowledges it. Admitted by an open-mode broker only: a keyed one
    /// answers [`NetError::Rejected`] (`AuthRequired`) and the connection
    /// stays usable. Encodes the container straight into the frame — no
    /// deep copy on the hot path.
    pub fn publish(&mut self, container: &BroadcastContainer) -> Result<PublishReceipt, NetError> {
        let body = encode_publish(container)?;
        self.send_body(&body)?;
        self.await_publish_ack()
    }

    /// Publishes a container with a Schnorr signature over
    /// [`publish_auth_message`] under `key` (registered with
    /// the broker as `key_id`). Required against a keyed broker; accepted
    /// (signature unchecked) by an open-mode one. A typed broker refusal
    /// surfaces as [`NetError::Rejected`] and leaves the connection
    /// usable.
    pub fn publish_signed<G: CyclicGroup, R: RngCore + ?Sized>(
        &mut self,
        group: &G,
        key_id: &str,
        key: &SigningKey<G>,
        container: &BroadcastContainer,
        rng: &mut R,
    ) -> Result<PublishReceipt, NetError> {
        let body =
            encode_signed_publish(key_id, Signature::encoded_len(group), container, |bytes| {
                let msg = publish_auth_message(&container.document_name, container.epoch, bytes);
                key.sign(group, rng, &msg).to_bytes(group)
            })?;
        self.send_body(&body)?;
        self.await_publish_ack()
    }

    fn await_publish_ack(&mut self) -> Result<PublishReceipt, NetError> {
        match self.wait_skipping_deliveries()? {
            Frame::Ack { epoch, fanout } => Ok(PublishReceipt { epoch, fanout }),
            other => Err(NetError::protocol(format!(
                "expected publish Ack, got {other:?}"
            ))),
        }
    }

    /// Subscribes to `documents` (empty = every document) with the newest
    /// retained epoch of each replayed; blocks until acknowledged.
    /// Retained containers arrive as ordinary deliveries.
    pub fn subscribe<S: AsRef<str>>(&mut self, documents: &[S]) -> Result<(), NetError> {
        self.subscribe_with_history(documents, 1)
    }

    /// Subscribes to `documents` (empty = every document) and asks the
    /// broker to replay up to the last `depth` retained epochs of each —
    /// delivered oldest-first, so consumers that drop non-increasing
    /// epochs accept the whole history. The broker replays at most what it
    /// retains (its configured history depth).
    pub fn subscribe_with_history<S: AsRef<str>>(
        &mut self,
        documents: &[S],
        depth: u32,
    ) -> Result<(), NetError> {
        let documents = documents.iter().map(|s| s.as_ref().to_string()).collect();
        self.send(&Frame::Subscribe { documents, depth })?;
        match self.wait_skipping_deliveries()? {
            Frame::Ack { .. } => Ok(()),
            other => Err(NetError::protocol(format!(
                "expected subscribe Ack, got {other:?}"
            ))),
        }
    }

    /// Asks the broker for its retained-container summaries.
    pub fn list_configs(&mut self) -> Result<Vec<ConfigSummary>, NetError> {
        self.send(&Frame::ListConfigs)?;
        match self.wait_skipping_deliveries()? {
            Frame::Configs(entries) => Ok(entries),
            other => Err(NetError::protocol(format!(
                "expected Configs, got {other:?}"
            ))),
        }
    }

    /// Scrapes the broker's live metrics: the text exposition (counters,
    /// gauges, latency quantiles) produced from one consistent registry
    /// snapshot.
    pub fn stats(&mut self) -> Result<String, NetError> {
        self.send(&Frame::StatsRequest)?;
        match self.wait_skipping_deliveries()? {
            Frame::StatsResponse { text } => Ok(text),
            other => Err(NetError::protocol(format!(
                "expected StatsResponse, got {other:?}"
            ))),
        }
    }

    /// Blocks for the next delivered container (queued ones first).
    pub fn next_delivery(&mut self) -> Result<BroadcastContainer, NetError> {
        if let Some(c) = self.pending.pop_front() {
            return Ok(c);
        }
        match self.recv()? {
            Frame::Deliver(c) => Ok(c),
            Frame::Error { message } => Err(NetError::Protocol(message)),
            other => Err(NetError::protocol(format!(
                "expected Deliver, got {other:?}"
            ))),
        }
    }

    /// Sets the socket read timeout; a timed-out read surfaces as
    /// [`NetError::Io`].
    ///
    /// **Caveat:** a timeout that fires mid-frame (after some bytes of a
    /// large delivery were already consumed) leaves the stream
    /// desynchronized — treat any timeout during a receive as fatal for
    /// this connection and reconnect, rather than retrying the read.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Consumes the client, returning the underlying socket. Queued
    /// deliveries that arrived interleaved with replies are dropped, so
    /// call this right after connect/subscribe — it exists for callers
    /// that multiplex many subscriber connections from one thread (the
    /// fan-out benches' pooled herds) after using the typed API for the
    /// handshake.
    pub fn into_stream(self) -> TcpStream {
        self.stream
    }

    /// Says goodbye and closes the connection.
    pub fn bye(mut self) -> Result<(), NetError> {
        self.send(&Frame::Bye)?;
        // The broker echoes Bye; deliveries may still be in flight first —
        // drain a bounded number of them, then give up on the goodbye.
        for _ in 0..MAX_PENDING_DELIVERIES {
            match self.recv() {
                Ok(Frame::Bye) | Err(NetError::Closed) => return Ok(()),
                Ok(Frame::Deliver(_)) => continue,
                Ok(other) => {
                    return Err(NetError::protocol(format!("expected Bye, got {other:?}")))
                }
                Err(e) => return Err(e),
            }
        }
        Err(NetError::protocol(
            "broker flooded the goodbye with deliveries",
        ))
    }

    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        write_frame(&mut self.stream, frame)
    }

    /// Writes a pre-encoded frame body with the length prefix.
    fn send_body(&mut self, body: &[u8]) -> Result<(), NetError> {
        write_body(&mut self.stream, body)
    }

    fn recv(&mut self) -> Result<Frame, NetError> {
        read_frame(&mut self.stream)
    }

    /// Reads until a non-`Deliver` frame arrives, queueing deliveries; a
    /// broker `Error` frame becomes `Err` directly, and a typed `Reject`
    /// becomes [`NetError::Rejected`] (the connection stays usable).
    fn wait_skipping_deliveries(&mut self) -> Result<Frame, NetError> {
        loop {
            match self.recv()? {
                Frame::Deliver(c) => {
                    if self.pending.len() >= MAX_PENDING_DELIVERIES {
                        return Err(NetError::protocol(
                            "broker sent deliveries instead of a reply until the pending queue filled",
                        ));
                    }
                    self.pending.push_back(c);
                }
                Frame::Error { message } => return Err(NetError::Protocol(message)),
                Frame::Reject { reason, message } => {
                    return Err(NetError::Rejected {
                        reason,
                        detail: message,
                    })
                }
                other => return Ok(other),
            }
        }
    }
}
