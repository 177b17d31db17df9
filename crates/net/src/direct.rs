//! Direct request/response endpoints for the protocol legs that must
//! **not** ride the broker: registration and token issuance, which run
//! publisher↔subscriber (or issuer↔subscriber) only.
//!
//! The server is a deliberately dumb byte pipe: it reads one
//! length-prefixed request, hands the bytes to a caller-supplied handler,
//! and writes the handler's bytes back. It knows nothing about tokens,
//! proofs or envelopes — `pbcd_net` still depends on `pbcd_docs` alone, so
//! the dependency graph keeps enforcing that *no broker-layer code can
//! reach key material*; the typed protocol lives one layer up
//! (`pbcd_core::proto`) and plugs in as a `handle(bytes) -> bytes`
//! closure.
//!
//! Framing is the broker's own transport half (`len u32 ‖ body`, memory
//! committed only as bytes arrive), but with a much tighter default size
//! bound ([`DirectConfig::max_request_len`], 4 MiB): registration messages
//! are a few KiB, so nothing on this socket ever needs the broker's
//! 64 MiB container allowance. Each connection serves requests
//! sequentially; connections are isolated — a peer that sends garbage
//! framing, goes silent past the idle timeout, or even panics the handler
//! loses its own connection and nothing else.
//!
//! The handler is `Fn + Sync` and is called from every connection thread
//! **in parallel**, with no server-side lock around it: what a handler
//! must serialize (an issuer's RNG, a publisher's policy set) it guards
//! itself, so N connections wait on exactly the state they share and no
//! more.

use crate::error::NetError;
use crate::frame::{read_body_bounded, write_body, MAX_FRAME_LEN};
use pbcd_telemetry::{Counter, Histogram, Registry, Snapshot};
use std::collections::HashMap;
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`RegistrationServer`].
#[derive(Debug, Clone)]
pub struct DirectConfig {
    /// Maximum concurrent connections; further peers are refused by
    /// closing their socket immediately.
    pub max_connections: usize,
    /// Per-read idle timeout: a connected peer that sends nothing for this
    /// long is dropped (`None` = wait forever).
    pub read_timeout: Option<Duration>,
    /// Maximum accepted request size. Registration/issuance messages are
    /// a few KiB, so the default (4 MiB, matching the protocol layer's own
    /// message bound) is generous — and far below the broker's 64 MiB
    /// container frames, which have no business on this socket. A hostile
    /// length prefix beyond this costs the peer its connection before any
    /// memory is committed.
    pub max_request_len: usize,
}

impl Default for DirectConfig {
    fn default() -> Self {
        Self {
            max_connections: 256,
            read_timeout: Some(Duration::from_secs(60)),
            max_request_len: 4 * 1024 * 1024,
        }
    }
}

struct ServerShared {
    shutdown: AtomicBool,
    /// Live connection streams, for forced shutdown. Keyed by connection id.
    connections: Mutex<HashMap<u64, TcpStream>>,
    /// Transport-level metrics: request count and wall-clock handler
    /// latency. The server cannot label by request kind (it is a byte
    /// pipe by design); kind-level metrics live in the handler's own
    /// registry one layer up.
    registry: Registry,
    requests: Counter,
    request_ns: Histogram,
}

/// A threaded request/response server around one `handle(bytes) -> bytes`
/// function.
pub struct RegistrationServer {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept: Option<JoinHandle<()>>,
}

impl RegistrationServer {
    /// Binds to `addr` (use port 0 for an ephemeral port) and starts
    /// serving `handler` with the default [`DirectConfig`].
    ///
    /// `handler` is called from every connection thread in parallel, with
    /// no server-side lock around it; it is responsible for its own
    /// synchronization.
    pub fn bind<F>(addr: impl ToSocketAddrs, handler: F) -> Result<Self, NetError>
    where
        F: Fn(&[u8]) -> Vec<u8> + Send + Sync + 'static,
    {
        Self::bind_with(addr, DirectConfig::default(), handler)
    }

    /// [`Self::bind`] with explicit configuration.
    pub fn bind_with<F>(
        addr: impl ToSocketAddrs,
        config: DirectConfig,
        handler: F,
    ) -> Result<Self, NetError>
    where
        F: Fn(&[u8]) -> Vec<u8> + Send + Sync + 'static,
    {
        let handler: Handler = Arc::new(handler);
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let registry = Registry::new();
        let requests = registry.counter("direct_requests_total");
        let request_ns = registry.histogram("direct_request_ns");
        let shared = Arc::new(ServerShared {
            shutdown: AtomicBool::new(false),
            connections: Mutex::new(HashMap::new()),
            registry,
            requests,
            request_ns,
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("pbcd-direct-accept".into())
                .spawn(move || accept_loop(listener, shared, config, handler))?
        };
        Ok(Self {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (with the actual port for `:0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests served so far (including ones answered with handler-level
    /// error bytes — the server cannot tell those apart, by design).
    pub fn requests_served(&self) -> u64 {
        self.shared.requests.get()
    }

    /// Snapshot of the transport metrics: `direct_requests_total` and the
    /// `direct_request_ns` handler-latency histogram.
    pub fn metrics(&self) -> Snapshot {
        self.shared.registry.snapshot()
    }

    /// [`Self::metrics`] rendered in the text exposition format.
    pub fn metrics_text(&self) -> String {
        self.metrics().render_text()
    }

    /// Stops accepting, disconnects every peer and joins the server
    /// threads. Also runs on drop.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock per-connection reads.
        {
            let conns = self
                .shared
                .connections
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for stream in conns.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        wake_and_join(self.addr, accept);
    }
}

/// Unblocks the accept loop listening on `addr` and joins it. An
/// unspecified bind address (0.0.0.0 / ::) is not connectable everywhere,
/// so the wake goes via loopback, bounded so shutdown can never hang on an
/// unreachable listener: then the accept thread is leaked, not joined (the
/// caller has already closed every connection).
pub(crate) fn wake_and_join(mut addr: SocketAddr, accept: JoinHandle<()>) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    if TcpStream::connect_timeout(&addr, Duration::from_secs(1)).is_ok() {
        let _ = accept.join();
    }
}

impl Drop for RegistrationServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The handler, shared by every connection thread.
type Handler = Arc<dyn Fn(&[u8]) -> Vec<u8> + Send + Sync>;

fn accept_loop(
    listener: TcpListener,
    shared: Arc<ServerShared>,
    config: DirectConfig,
    handler: Handler,
) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    let mut next_id: u64 = 0;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Transient accept error: back off briefly and retry.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Reap finished workers so a long-lived server does not accumulate
        // handles.
        workers.retain(|w| !w.is_finished());

        let id = next_id;
        next_id += 1;
        {
            // Register under the lock, re-checking the shutdown flag inside
            // the critical section so a racing shutdown cannot miss us.
            let mut conns = shared
                .connections
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if shared.shutdown.load(Ordering::SeqCst) || conns.len() >= config.max_connections {
                let _ = stream.shutdown(Shutdown::Both);
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            match stream.try_clone() {
                Ok(clone) => {
                    conns.insert(id, clone);
                }
                Err(_) => {
                    let _ = stream.shutdown(Shutdown::Both);
                    continue;
                }
            }
        }
        let shared_conn = Arc::clone(&shared);
        let handler = Arc::clone(&handler);
        let conn_config = config.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("pbcd-direct-conn-{id}"))
            .spawn(move || {
                serve_connection(stream, &shared_conn, &conn_config, &*handler);
                forget_connection(&shared_conn, id);
            });
        match spawned {
            Ok(worker) => workers.push(worker),
            // No thread to be had: the stream died with the closure; drop
            // its registered clone too, so the peer sees the close.
            Err(_) => forget_connection(&shared, id),
        }
    }
    for w in workers {
        let _ = w.join();
    }
}

fn forget_connection(shared: &ServerShared, id: u64) {
    shared
        .connections
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .remove(&id);
}

fn serve_connection(
    mut stream: TcpStream,
    shared: &ServerShared,
    config: &DirectConfig,
    handler: &(dyn Fn(&[u8]) -> Vec<u8> + Send + Sync),
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(config.read_timeout);
    // Until clean close, garbage framing, oversize or idle timeout — any
    // of which ends this connection; nobody else is affected. Requests may
    // be any length from empty up to the configured bound (the 4-byte
    // broker-frame minimum does not apply to this raw byte pipe).
    while let Ok(request) = read_body_bounded(&mut stream, 0, config.max_request_len) {
        // A panicking handler costs the *triggering* connection its reply
        // and nothing else: the panic is contained here. What it does to
        // the handler's own locks is the handler's business — a
        // bytes-in/bytes-out service whose state a panic cannot leave
        // half-applied recovers the poisoned lock (`IssuerService` does).
        let start = Instant::now();
        let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler(&request)));
        let Ok(response) = response else {
            break;
        };
        shared.requests.inc();
        shared.request_ns.record_since(start);
        if write_body(&mut stream, &response).is_err() {
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Read timeout applied to every [`RegistrationClient`] call so an
/// unresponsive endpoint cannot hang the subscriber forever; adjustable
/// via [`RegistrationClient::set_read_timeout`].
const CALL_TIMEOUT: Duration = Duration::from_secs(30);

/// The client half: one connection, synchronous `call` round-trips.
pub struct RegistrationClient {
    stream: TcpStream,
}

impl RegistrationClient {
    /// Connects to a [`RegistrationServer`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(CALL_TIMEOUT));
        Ok(Self { stream })
    }

    /// Sends one request and blocks for the response. Requests and
    /// responses may be any length (including empty) up to
    /// [`MAX_FRAME_LEN`] on the client side; the server enforces its own
    /// [`DirectConfig::max_request_len`].
    pub fn call(&mut self, request: &[u8]) -> Result<Vec<u8>, NetError> {
        write_body(&mut self.stream, request)?;
        read_body_bounded(&mut self.stream, 0, MAX_FRAME_LEN)
    }

    /// Bounds how long a call may wait for its response.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Closes the connection.
    pub fn close(self) -> Result<(), NetError> {
        self.stream.shutdown(Shutdown::Both)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn echo_server() -> RegistrationServer {
        RegistrationServer::bind("127.0.0.1:0", |req: &[u8]| {
            let mut out = b"echo:".to_vec();
            out.extend_from_slice(req);
            out
        })
        .expect("bind")
    }

    #[test]
    fn round_trip_and_sequential_calls() {
        let server = echo_server();
        let mut client = RegistrationClient::connect(server.addr()).expect("connect");
        for i in 0..5u8 {
            let resp = client.call(&[1, 2, 3, i]).expect("call");
            assert_eq!(resp, [b'e', b'c', b'h', b'o', b':', 1, 2, 3, i]);
        }
        assert_eq!(server.requests_served(), 5);
        client.close().expect("close");
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_all_reach_the_handler() {
        let counter = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&counter);
        let server = RegistrationServer::bind("127.0.0.1:0", move |_req: &[u8]| {
            let n = c.fetch_add(1, Ordering::SeqCst);
            n.to_be_bytes().to_vec()
        })
        .expect("bind");
        let addr = server.addr();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut client = RegistrationClient::connect(addr).expect("connect");
                    for _ in 0..8 {
                        client.call(&[0u8; 8]).expect("call");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("client thread");
        }
        assert_eq!(counter.load(Ordering::SeqCst), 32);
        assert_eq!(server.requests_served(), 32);
        server.shutdown();
    }

    #[test]
    fn garbage_framing_kills_only_that_connection() {
        use std::io::Write;
        let server = echo_server();
        // A raw socket announcing an absurd frame length.
        let mut bad = TcpStream::connect(server.addr()).expect("connect");
        bad.write_all(&u32::MAX.to_be_bytes()).expect("write");
        // The server drops it; a well-behaved client still works.
        let mut good = RegistrationClient::connect(server.addr()).expect("connect");
        assert_eq!(good.call(b"hi!!").expect("call"), b"echo:hi!!");
        server.shutdown();
    }

    #[test]
    fn max_connections_refuses_excess_peers() {
        let server = RegistrationServer::bind_with(
            "127.0.0.1:0",
            DirectConfig {
                max_connections: 1,
                read_timeout: Some(Duration::from_secs(5)),
                ..DirectConfig::default()
            },
            |req: &[u8]| req.to_vec(),
        )
        .expect("bind");
        let mut first = RegistrationClient::connect(server.addr()).expect("connect");
        assert_eq!(first.call(b"ok??").expect("call"), b"ok??");
        // The second connection is accepted by the OS but closed by the
        // server; its first call errors.
        let mut second = RegistrationClient::connect(server.addr()).expect("connect");
        assert!(second.call(b"nope").is_err());
        // The first connection keeps working.
        assert_eq!(first.call(b"more").expect("call"), b"more");
        server.shutdown();
    }

    #[test]
    fn short_and_empty_bodies_round_trip() {
        // The raw pipe has no 4-byte frame minimum in either direction.
        let server = RegistrationServer::bind("127.0.0.1:0", |req: &[u8]| {
            if req.is_empty() {
                Vec::new()
            } else {
                req[..1].to_vec()
            }
        })
        .expect("bind");
        let mut client = RegistrationClient::connect(server.addr()).expect("connect");
        assert_eq!(client.call(b"zq").expect("short call"), b"z");
        assert_eq!(client.call(b"").expect("empty call"), b"");
        server.shutdown();
    }

    #[test]
    fn oversized_request_costs_only_that_connection() {
        let server = RegistrationServer::bind_with(
            "127.0.0.1:0",
            DirectConfig {
                max_request_len: 1024,
                ..DirectConfig::default()
            },
            |req: &[u8]| req.to_vec(),
        )
        .expect("bind");
        // A length prefix beyond the bound is rejected before any payload
        // memory is committed; the connection dies, the server survives.
        let mut hostile = RegistrationClient::connect(server.addr()).expect("connect");
        assert!(hostile.call(&vec![0u8; 2048]).is_err());
        let mut good = RegistrationClient::connect(server.addr()).expect("connect");
        assert_eq!(good.call(b"fine").expect("call"), b"fine");
        server.shutdown();
    }

    #[test]
    fn panicking_handler_kills_one_connection_not_the_server() {
        let server = RegistrationServer::bind("127.0.0.1:0", |req: &[u8]| {
            assert!(req != &b"boom"[..], "hostile request tripped a handler bug");
            req.to_vec()
        })
        .expect("bind");
        let mut victim = RegistrationClient::connect(server.addr()).expect("connect");
        assert!(victim.call(b"boom").is_err(), "no reply after the panic");
        // A fresh connection is served normally — per-connection
        // isolation holds.
        let mut good = RegistrationClient::connect(server.addr()).expect("connect");
        assert_eq!(good.call(b"calm").expect("call"), b"calm");
        server.shutdown();
    }

    #[test]
    fn concurrent_handler_really_runs_in_parallel() {
        // Two connections must sit inside the handler *at the same time*:
        // a 2-party barrier inside the handler only clears if the second
        // request is served while the first is still in flight. A server
        // that held a lock around the handler would deadlock (and time
        // out).
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let b = Arc::clone(&barrier);
        let server = RegistrationServer::bind("127.0.0.1:0", move |req: &[u8]| {
            b.wait();
            req.to_vec()
        })
        .expect("bind");
        let addr = server.addr();
        let threads: Vec<_> = (0..2)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut client = RegistrationClient::connect(addr).expect("connect");
                    client
                        .set_read_timeout(Some(Duration::from_secs(20)))
                        .expect("timeout");
                    client.call(&[i]).expect("call served concurrently")
                })
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().expect("client").len(), 1);
        }
        assert_eq!(server.requests_served(), 2);
        server.shutdown();
    }

    #[test]
    fn shutdown_disconnects_live_clients() {
        let server = echo_server();
        let mut client = RegistrationClient::connect(server.addr()).expect("connect");
        assert!(client.call(b"ping").is_ok());
        server.shutdown();
        assert!(client.call(b"ping").is_err(), "server is gone");
    }
}
