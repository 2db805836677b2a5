//! Per-shard connection pools with hard deadlines.
//!
//! Each shard gets a small pool of idle TCP connections. A request
//! checks one out (or dials with a connect deadline), does one
//! frame round-trip under read/write timeouts, and returns the
//! connection on success. Any failure discards the connection — the
//! next request dials fresh, so a shard restart never leaves the pool
//! poisoned. Idle connections may have been closed by the peer (its
//! slowloris guard, a drain, a crash); the pool transparently falls
//! back through the remaining idle connections and finally a fresh
//! dial before reporting failure.

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::Duration;

use xrta_serve::proto::{read_frame, write_frame};

/// Deadlines for everything a pooled connection does.
#[derive(Clone, Copy, Debug)]
pub struct PoolOptions {
    /// Dial deadline.
    pub connect_timeout: Duration,
    /// Per-round-trip read deadline (covers the shard's service time,
    /// so it must exceed the largest clamped analysis budget).
    pub read_timeout: Duration,
    /// Write deadline for one frame.
    pub write_timeout: Duration,
    /// Idle connections kept per shard.
    pub idle_cap: usize,
}

impl Default for PoolOptions {
    fn default() -> Self {
        PoolOptions {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(5),
            idle_cap: 8,
        }
    }
}

/// The pool for one backend address.
pub struct ShardPool {
    addr: String,
    options: PoolOptions,
    idle: Mutex<Vec<TcpStream>>,
}

impl ShardPool {
    /// Creates an empty pool (no eager dialing: a dead shard costs
    /// nothing until someone routes to it).
    pub fn new(addr: String, options: PoolOptions) -> ShardPool {
        ShardPool {
            addr,
            options,
            idle: Mutex::new(Vec::new()),
        }
    }

    /// The backend address this pool dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn resolve(&self) -> io::Result<SocketAddr> {
        self.addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "address resolved to nothing"))
    }

    fn dial(&self) -> io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&self.resolve()?, self.options.connect_timeout)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(self.options.read_timeout))?;
        stream.set_write_timeout(Some(self.options.write_timeout))?;
        Ok(stream)
    }

    fn checkout(&self) -> Option<TcpStream> {
        self.idle.lock().unwrap().pop()
    }

    fn checkin(&self, stream: TcpStream) {
        let mut idle = self.idle.lock().unwrap();
        if idle.len() < self.options.idle_cap {
            idle.push(stream);
        }
    }

    /// Empties the idle pool (used when a shard is drained or ejected,
    /// so reinstatement starts from fresh connections).
    pub fn clear(&self) {
        self.idle.lock().unwrap().clear();
    }

    /// One frame round-trip: send `payload`, read one response frame.
    /// Stale idle connections are fallen through; the final attempt is
    /// always a fresh dial, whose error is what the caller sees.
    pub fn request_bytes(&self, payload: &[u8]) -> io::Result<Vec<u8>> {
        while let Some(mut stream) = self.checkout() {
            match roundtrip_on(&mut stream, payload) {
                Ok(bytes) => {
                    self.checkin(stream);
                    return Ok(bytes);
                }
                // The idle connection was dead (peer closed it while
                // pooled); requests are idempotent, try the next one.
                Err(_) => continue,
            }
        }
        let mut stream = self.dial()?;
        let bytes = roundtrip_on(&mut stream, payload)?;
        self.checkin(stream);
        Ok(bytes)
    }
}

/// One frame round-trip on an already-deadlined stream. Any timeout
/// is a hard error — the pool's deadlines are real deadlines, unlike
/// the server's patient reader.
fn roundtrip_on(stream: &mut TcpStream, payload: &[u8]) -> io::Result<Vec<u8>> {
    write_frame(stream, payload)?;
    read_frame(stream)
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;

    use super::*;

    fn echo_server(conns: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for _ in 0..conns {
                let (mut s, _) = listener.accept().unwrap();
                while let Ok(payload) = read_frame(&mut s) {
                    if write_frame(&mut s, &payload).is_err() {
                        break;
                    }
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn reuses_one_connection_across_requests() {
        let (addr, server) = echo_server(1);
        let pool = ShardPool::new(addr.to_string(), PoolOptions::default());
        for i in 0..5u8 {
            let reply = pool.request_bytes(&[i; 3]).unwrap();
            assert_eq!(reply, [i; 3]);
        }
        // One accepted connection served all five round-trips.
        drop(pool);
        // Unblock the echo loop by closing; the server thread exits
        // when its single connection EOFs.
        server.join().unwrap();
    }

    #[test]
    fn stale_idle_connection_falls_through_to_a_fresh_dial() {
        let (addr, server) = echo_server(2);
        let pool = ShardPool::new(addr.to_string(), PoolOptions::default());
        assert_eq!(pool.request_bytes(b"a").unwrap(), b"a");
        // Kill the pooled connection from our side so the next checkout
        // finds a dead socket.
        {
            let idle = pool.idle.lock().unwrap();
            idle[0].shutdown(std::net::Shutdown::Both).unwrap();
        }
        assert_eq!(pool.request_bytes(b"b").unwrap(), b"b");
        drop(pool);
        server.join().unwrap();
    }

    #[test]
    fn dead_shard_reports_a_connect_error() {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let pool = ShardPool::new(
            addr.to_string(),
            PoolOptions {
                connect_timeout: Duration::from_millis(200),
                ..PoolOptions::default()
            },
        );
        assert!(pool.request_bytes(b"x").is_err());
    }
}
