//! The one connection lifecycle of every `pbcd_net` server. The broker,
//! its outbound relay links and the registration endpoint accept, track,
//! close and join their sockets through a [`Server`]: the accept thread,
//! the connection table (id → socket dup, plus the join handle of every
//! thread spawned for the server), the connection cap, the one shutdown
//! flag, and [`Server::stop`]. What differs per server (the broker's
//! handshake timeout and reader-pool handoff; the registration endpoint's
//! idle timeout, request bound and panic containment) lives in the
//! owner's per-connection closure.
//!
//! * **Race guard.** A socket enters the table only under the table lock,
//!   after re-reading the flag there; `stop` sets the flag *before* its
//!   sweep takes that lock. So either the registering thread sees the
//!   flag and bails, or its socket is in the table when the sweep runs.
//! * **Entries leave at teardown.** A broker connection outlives its
//!   handler thread once the reader pool adopts it, so an entry leaves
//!   only through [`Server::close`], never because a handler returned.
//! * **Lock order.** An owner's state lock comes before the table lock;
//!   the table runs no owner code under its lock.

use pbcd_telemetry::Counter;
use std::collections::BTreeMap;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// The per-connection closure a listening server runs on each accepted
/// connection's own thread, with the connection's id.
type Serve = dyn Fn(u64, TcpStream) + Send + Sync;

/// One server's connection table, cap, shutdown flag and threads.
pub(crate) struct Server {
    stopping: AtomicBool,
    max_connections: usize,
    /// Counts connections refused at the cap; `None` counts nothing.
    refused: Option<Counter>,
    next_id: AtomicU64,
    table: Mutex<Table>,
}

#[derive(Default)]
struct Table {
    /// id → dup of every live tracked socket, so `stop` and `shut` can
    /// close it for every holder.
    conns: BTreeMap<u64, TcpStream>,
    /// Join handles of every thread spawned for the server.
    threads: Vec<JoinHandle<()>>,
    /// The listener's address (the wake target) and the accept thread.
    accept: Option<(SocketAddr, JoinHandle<()>)>,
}

/// Why a socket was not tracked.
enum Refused {
    Stopping,
    Full,
}

impl Server {
    /// A server that tracks at most `max_connections` accepted sockets
    /// (tracked outbound sockets count toward the cap but are never
    /// refused by it), counting refusals in `refused`.
    pub(crate) fn new(max_connections: usize, refused: Option<Counter>) -> Arc<Server> {
        Arc::new(Server {
            stopping: AtomicBool::new(false),
            max_connections,
            refused,
            next_id: AtomicU64::new(0),
            table: Mutex::default(),
        })
    }

    /// Whether [`Self::stop`] has begun.
    pub(crate) fn is_stopping(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    /// A fresh connection id, unique within this server.
    pub(crate) fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn lock(&self) -> MutexGuard<'_, Table> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Tracks `raw` under `id` unless the server is stopping or holds
    /// `cap` sockets already: the race guard of the module docs.
    fn insert(&self, id: u64, raw: TcpStream, cap: usize) -> Result<(), Refused> {
        let mut table = self.lock();
        if self.is_stopping() {
            return Err(Refused::Stopping);
        }
        if table.conns.len() >= cap {
            return Err(Refused::Full);
        }
        table.conns.insert(id, raw);
        Ok(())
    }

    /// Tracks an outbound socket under `id`, so `stop` closes it.
    /// `false` means the server is stopping (or the socket could not be
    /// duplicated): the caller gives the socket up.
    pub(crate) fn track(&self, id: u64, stream: &TcpStream) -> bool {
        stream
            .try_clone()
            .is_ok_and(|raw| self.insert(id, raw, usize::MAX).is_ok())
    }

    /// Shuts `id`'s socket for every holder of a dup. The entry stays
    /// until the connection's teardown calls [`Self::close`].
    pub(crate) fn shut(&self, id: u64) {
        if let Some(stream) = self.lock().conns.get(&id) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Tears `id` down: its entry leaves the table and its socket is shut
    /// for every holder of a dup. Idempotent.
    pub(crate) fn close(&self, id: u64) {
        if let Some(stream) = self.lock().conns.remove(&id) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Spawns a named thread that [`Self::stop`] joins. Finished threads
    /// are joined here, so the table stays proportional to live threads
    /// rather than to every connection ever served.
    pub(crate) fn spawn(&self, name: String, f: impl FnOnce() + Send + 'static) -> io::Result<()> {
        let handle = std::thread::Builder::new().name(name).spawn(f)?;
        let finished: Vec<_> = {
            let mut table = self.lock();
            let (finished, live) = std::mem::take(&mut table.threads)
                .into_iter()
                .partition(|t| t.is_finished());
            table.threads = live;
            table.threads.push(handle);
            finished
        };
        for t in finished {
            let _ = t.join();
        }
        Ok(())
    }

    /// Starts the accept thread (`{name}-accept`). Each connection under
    /// the cap is tracked and served by `serve` on its own thread
    /// (`{name}-conn-{id}`); the closure owns the connection from there
    /// and calls [`Self::close`] at its teardown.
    pub(crate) fn listen(
        self: &Arc<Self>,
        listener: TcpListener,
        name: &'static str,
        serve: impl Fn(u64, TcpStream) + Send + Sync + 'static,
    ) -> io::Result<()> {
        let addr = listener.local_addr()?;
        let server = Arc::clone(self);
        let serve: Arc<Serve> = Arc::new(serve);
        let accept = std::thread::Builder::new()
            .name(format!("{name}-accept"))
            .spawn(move || server.accept_loop(&listener, name, &serve))?;
        self.lock().accept = Some((addr, accept));
        Ok(())
    }

    fn accept_loop(&self, listener: &TcpListener, name: &str, serve: &Arc<Serve>) {
        loop {
            let Ok((stream, _)) = listener.accept() else {
                // Accept errors are transient (EMFILE, aborted handshake);
                // keep serving unless stopping, but back off so a
                // persistent condition (fd exhaustion) doesn't busy-spin a
                // core.
                if self.is_stopping() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
                continue;
            };
            let id = self.next_id();
            let Ok(raw) = stream.try_clone() else {
                continue;
            };
            match self.insert(id, raw, self.max_connections) {
                Ok(()) => {}
                Err(Refused::Stopping) => break,
                // Dropping the stream closes the socket.
                Err(Refused::Full) => {
                    if let Some(refused) = &self.refused {
                        refused.inc();
                    }
                    continue;
                }
            }
            let serve = Arc::clone(serve);
            let spawned = self.spawn(format!("{name}-conn-{id}"), move || serve(id, stream));
            if spawned.is_err() {
                // No thread to be had: the stream died with the closure;
                // close its tracked dup too, so the peer sees the close.
                self.close(id);
            }
        }
    }

    /// Stops the server: sets the flag, shuts every tracked socket, runs
    /// `release` (the owner's own teardown, with no table lock held),
    /// wakes the listener, and joins the accept thread and every spawned
    /// thread. Idempotent: only the first call does anything.
    pub(crate) fn stop(&self, release: impl FnOnce()) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        for stream in self.lock().conns.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        release();
        // Wake the accept thread. An unspecified bind address (0.0.0.0 /
        // ::) is not connectable everywhere, so the wake goes via
        // loopback, bounded: an unreachable listener leaks the accept
        // thread rather than hanging shutdown.
        let accept = self.lock().accept.take();
        if let Some((mut addr, accept)) = accept {
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
        // The accept thread is gone, so nothing spawns any more.
        let threads = std::mem::take(&mut self.lock().threads);
        for t in threads {
            let _ = t.join();
        }
    }
}
