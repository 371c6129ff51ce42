//! The fault transport: `std::net` wrappers that replay a
//! [`NetFaultPlan`] against every connection operation.
//!
//! [`FaultNet`] is the mutable state of one endpoint's plan — the
//! connection-op counter and the sticky partition flag. [`Transport`] is
//! what server and client code hold: either a zero-overhead passthrough
//! (no plan configured — one `Option` branch per op, no allocation, no
//! syscall difference) or a wrapper around a shared [`FaultNet`].
//!
//! A torn read/write kills its stream: the torn op transfers only the
//! scheduled prefix, the socket is shut down so the *peer* observes the
//! failure promptly (a real tear surfaces as RST/EOF, not silence), and
//! every later op on the stream fails with `ECONNRESET` without consuming
//! plan ops — dead streams are a consequence, not an injection site.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use noc_store::Injector;

use crate::plan::{NetFaultKind, NetFaultPlan};

fn reset(op: u64) -> io::Error {
    io::Error::new(
        io::ErrorKind::ConnectionReset,
        format!("injected connection reset at net op {op}"),
    )
}

fn refused(op: u64) -> io::Error {
    io::Error::new(
        io::ErrorKind::ConnectionRefused,
        format!("injected admission failure at net op {op}"),
    )
}

fn partitioned(op: u64) -> io::Error {
    io::Error::new(
        io::ErrorKind::ConnectionReset,
        format!("injected network partition at net op {op}"),
    )
}

fn dead_stream() -> io::Error {
    io::Error::new(
        io::ErrorKind::ConnectionReset,
        "stream torn by an earlier injected fault",
    )
}

/// Shared mutable state of one endpoint's fault plan: the connection-op
/// counter and the sticky partition flag. `FaultNet::new(plan)` hands out
/// the `Arc` every listener and stream of the endpoint shares.
pub type FaultNet = Injector<NetFaultKind>;

/// The transport endpoints hold: passthrough or faulted. Cloning shares
/// the underlying [`FaultNet`] (and so the op counter).
#[derive(Clone, Debug, Default)]
pub struct Transport {
    net: Option<Arc<FaultNet>>,
}

impl Transport {
    /// The zero-overhead production transport.
    #[must_use]
    pub fn passthrough() -> Transport {
        Transport { net: None }
    }

    /// A transport replaying `net`'s plan.
    #[must_use]
    pub fn faulted(net: Arc<FaultNet>) -> Transport {
        Transport { net: Some(net) }
    }

    /// The process-wide transport, chosen once from the environment:
    /// faulted when `NOC_NET_FAULT_SCHEDULE` or `NOC_NET_FAULT_SEED` is set
    /// (binaries validate both eagerly and exit 2 on garbage), passthrough
    /// otherwise. Tests and soaks that need a specific plan construct
    /// their own [`FaultNet`] and pass it explicitly instead.
    #[must_use]
    pub fn from_env() -> Transport {
        static ACTIVE: OnceLock<Transport> = OnceLock::new();
        ACTIVE
            .get_or_init(|| match NetFaultPlan::from_process_env() {
                Ok(Some(plan)) => Transport::faulted(FaultNet::new(plan)),
                Ok(None) => Transport::passthrough(),
                // Binaries validate eagerly at startup; reaching this panic
                // means a library consumer skipped that gate.
                Err(e) => panic!("invalid network-fault configuration: {e}"),
            })
            .clone()
    }

    /// True when a fault plan is attached.
    pub fn is_faulted(&self) -> bool {
        self.net.is_some()
    }

    /// Wraps a bound listener. Accepting a pending connection consumes one
    /// op; an accept that blocks, would block, or only takes the loop's own
    /// wake-up connection consumes nothing (idling and shutting down must
    /// not burn schedule indices).
    #[must_use]
    pub fn listener(&self, inner: TcpListener) -> FaultListener {
        FaultListener {
            inner,
            net: self.net.clone(),
        }
    }

    /// Connects to `addr`, consuming one admission op when faulted.
    pub fn connect(&self, addr: &str, timeout: Duration) -> io::Result<FaultStream> {
        let Some(net) = &self.net else {
            return Ok(FaultStream::passthrough(raw_connect(addr, timeout)?));
        };
        let (op, kind) = net.next_op();
        match kind {
            Some(NetFaultKind::Slow(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            Some(NetFaultKind::AcceptFail) => return Err(refused(op)),
            Some(NetFaultKind::Partition) => return Err(partitioned(op)),
            Some(NetFaultKind::Reset | NetFaultKind::Torn(_)) => return Err(reset(op)),
            // next_op maps Heal to None; folded in to keep the match total.
            None | Some(NetFaultKind::Heal) => {}
        }
        Ok(FaultStream::faulted(
            raw_connect(addr, timeout)?,
            Arc::clone(net),
        ))
    }
}

fn raw_connect(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let mut last = None;
    for sa in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sa, timeout) {
            Ok(s) => return Ok(s),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("no address for {addr}"),
        )
    }))
}

/// A listener whose accepts go through the fault plan.
pub struct FaultListener {
    inner: TcpListener,
    net: Option<Arc<FaultNet>>,
}

impl FaultListener {
    /// Accepts one pending connection through the plan. `WouldBlock` (a
    /// nonblocking listener with nothing pending) passes through without
    /// consuming an op index.
    pub fn accept(&self) -> io::Result<(FaultStream, SocketAddr)> {
        let (stream, peer) = self.inner.accept()?;
        self.admit(stream, peer)
    }

    /// [`FaultListener::accept`] for a blocking accept loop with a stop
    /// flag: a connection that arrives once `stop` is set — the loop's
    /// own wake-up connection — is dropped *before* it reaches the plan
    /// and reported as `Ok(None)`, so shutting down consumes no op index
    /// and schedules recorded against the polling loop still replay.
    pub fn accept_unless(
        &self,
        stop: &AtomicBool,
    ) -> io::Result<Option<(FaultStream, SocketAddr)>> {
        let (stream, peer) = self.inner.accept()?;
        if stop.load(Ordering::SeqCst) {
            return Ok(None);
        }
        self.admit(stream, peer).map(Some)
    }

    /// Runs one accepted connection through the plan (one op).
    fn admit(&self, stream: TcpStream, peer: SocketAddr) -> io::Result<(FaultStream, SocketAddr)> {
        let Some(net) = &self.net else {
            return Ok((FaultStream::passthrough(stream), peer));
        };
        let (op, kind) = net.next_op();
        match kind {
            None | Some(NetFaultKind::Heal) => {}
            Some(NetFaultKind::Slow(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            Some(NetFaultKind::AcceptFail) => return Err(refused(op)),
            Some(NetFaultKind::Partition) => return Err(partitioned(op)),
            Some(NetFaultKind::Reset | NetFaultKind::Torn(_)) => {
                // The pending connection is dropped; the peer sees a reset.
                let _ = stream.shutdown(Shutdown::Both);
                return Err(reset(op));
            }
        }
        Ok((FaultStream::faulted(stream, Arc::clone(net)), peer))
    }

    /// Delegates to [`TcpListener::set_nonblocking`].
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        self.inner.set_nonblocking(nonblocking)
    }

    /// Delegates to [`TcpListener::local_addr`].
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }
}

/// A stream whose reads and writes go through the fault plan. Clones (for
/// split reader/writer use) share the plan state *and* the dead flag, so a
/// tear observed on one half kills the other.
#[derive(Debug)]
pub struct FaultStream {
    inner: TcpStream,
    net: Option<Arc<FaultNet>>,
    dead: Arc<AtomicBool>,
}

impl FaultStream {
    fn passthrough(inner: TcpStream) -> FaultStream {
        FaultStream {
            inner,
            net: None,
            dead: Arc::new(AtomicBool::new(false)),
        }
    }

    fn faulted(inner: TcpStream, net: Arc<FaultNet>) -> FaultStream {
        FaultStream {
            inner,
            net: Some(net),
            dead: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Kills the stream: later ops reset without consuming plan indices,
    /// and the socket is shut down so the peer observes the tear promptly.
    fn kill(&self) {
        self.dead.store(true, Ordering::SeqCst);
        let _ = self.inner.shutdown(Shutdown::Both);
    }

    /// Clone sharing the socket, the plan state, and the dead flag.
    pub fn try_clone(&self) -> io::Result<FaultStream> {
        Ok(FaultStream {
            inner: self.inner.try_clone()?,
            net: self.net.clone(),
            dead: Arc::clone(&self.dead),
        })
    }

    /// Delegates to [`TcpStream::set_read_timeout`].
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(dur)
    }

    /// Delegates to [`TcpStream::set_write_timeout`].
    pub fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.inner.set_write_timeout(dur)
    }

    /// Delegates to [`TcpStream::shutdown`].
    pub fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        self.inner.shutdown(how)
    }

    /// Delegates to [`TcpStream::peer_addr`].
    pub fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.inner.peer_addr()
    }
}

impl Read for FaultStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let Some(net) = &self.net else {
            return self.inner.read(buf);
        };
        if self.dead.load(Ordering::SeqCst) {
            return Err(dead_stream());
        }
        let (op, kind) = net.next_op();
        match kind {
            None | Some(NetFaultKind::Heal | NetFaultKind::AcceptFail) => self.inner.read(buf),
            Some(NetFaultKind::Slow(ms)) => {
                std::thread::sleep(Duration::from_millis(ms));
                self.inner.read(buf)
            }
            Some(NetFaultKind::Torn(n)) => {
                // The connection dies during this read: the caller sees at
                // most the first `n` bytes the peer sent, then resets.
                let got = self.inner.read(buf)?;
                self.kill();
                Ok(got.min(n as usize))
            }
            Some(NetFaultKind::Reset) => {
                self.kill();
                Err(reset(op))
            }
            Some(NetFaultKind::Partition) => {
                self.kill();
                Err(partitioned(op))
            }
        }
    }
}

impl Write for FaultStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let Some(net) = &self.net else {
            return self.inner.write(buf);
        };
        if self.dead.load(Ordering::SeqCst) {
            return Err(dead_stream());
        }
        let (op, kind) = net.next_op();
        match kind {
            None | Some(NetFaultKind::Heal | NetFaultKind::AcceptFail) => self.inner.write(buf),
            Some(NetFaultKind::Slow(ms)) => {
                std::thread::sleep(Duration::from_millis(ms));
                self.inner.write(buf)
            }
            Some(NetFaultKind::Torn(n)) => {
                // The torn prefix really reaches the wire; the caller sees
                // an error with bytes-sent unknown — exactly a mid-write
                // connection death.
                let cut = (n as usize).min(buf.len());
                let _ = self.inner.write(&buf[..cut]);
                self.kill();
                Err(reset(op))
            }
            Some(NetFaultKind::Reset) => {
                self.kill();
                Err(reset(op))
            }
            Some(NetFaultKind::Partition) => {
                self.kill();
                Err(partitioned(op))
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One echo exchange over a loopback pair wrapped in `transport`.
    /// Returns (client result bytes, server result bytes).
    fn pair(transport: &Transport) -> (FaultListener, FaultStream) {
        let raw = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = raw.local_addr().unwrap().to_string();
        let listener = transport.listener(raw);
        let client = transport
            .connect(&addr, Duration::from_secs(5))
            .expect("connect");
        (listener, client)
    }

    #[test]
    fn passthrough_round_trips_bytes() {
        let t = Transport::passthrough();
        let (listener, mut client) = pair(&t);
        let (mut served, _) = listener.accept().unwrap();
        client.write_all(b"hello").unwrap();
        let mut buf = [0u8; 5];
        served.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        assert!(!t.is_faulted());
    }

    #[test]
    fn torn_write_sends_a_real_prefix_then_kills_the_stream() {
        // Client ops: 0 connect, 1 the torn write.
        let net = FaultNet::new(NetFaultPlan::default().with_event(1, NetFaultKind::Torn(3)));
        let t = Transport::faulted(Arc::clone(&net));
        let (raw_listener, mut client) = {
            let raw = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = raw.local_addr().unwrap().to_string();
            let client = t.connect(&addr, Duration::from_secs(5)).unwrap();
            (raw, client)
        };
        let (mut served, _) = raw_listener.accept().unwrap();
        let err = client.write_all(b"hello world").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        // The peer sees exactly the torn prefix, then EOF/reset.
        let mut got = Vec::new();
        let _ = served.read_to_end(&mut got);
        assert_eq!(&got, b"hel");
        // The dead stream resets without consuming more ops.
        let before = net.ops();
        assert!(client.write_all(b"again").is_err());
        let mut buf = [0u8; 1];
        assert!(client.read(&mut buf).is_err());
        assert_eq!(net.ops(), before, "dead streams must not burn plan ops");
    }

    #[test]
    fn torn_read_truncates_at_the_scheduled_offset() {
        // Server ops: 0 accept, 1 the torn read.
        let net = FaultNet::new(NetFaultPlan::default().with_event(1, NetFaultKind::Torn(4)));
        let t = Transport::faulted(net);
        let (listener, mut client) = pair(&Transport::passthrough());
        // Re-wrap the listener side with the faulted transport.
        let listener = FaultListener {
            inner: listener.inner,
            net: t.net.clone(),
        };
        client.write_all(b"abcdefgh").unwrap();
        let (mut served, _) = listener.accept().unwrap();
        let mut buf = [0u8; 8];
        let n = served.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"abcd");
        assert!(served.read(&mut buf).is_err(), "stream is dead after tear");
    }

    #[test]
    fn reset_at_accept_drops_the_pending_connection() {
        let net = FaultNet::new(NetFaultPlan::default().with_event(0, NetFaultKind::Reset));
        let t = Transport::faulted(net);
        let raw = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = raw.local_addr().unwrap().to_string();
        let listener = t.listener(raw);
        let _client = TcpStream::connect(&addr).unwrap();
        let err = listener.accept().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        // The next accept works: the fault was one op, not a state change.
        let _client2 = TcpStream::connect(&addr).unwrap();
        listener.accept().expect("second accept passes");
    }

    #[test]
    fn wake_up_connection_never_reaches_the_plan() {
        // Op 0 would reset whatever is accepted first.
        let net = FaultNet::new(NetFaultPlan::default().with_event(0, NetFaultKind::Reset));
        let raw = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = raw.local_addr().unwrap();
        let listener = Transport::faulted(Arc::clone(&net)).listener(raw);
        let stop = AtomicBool::new(true);
        let _wake = TcpStream::connect(addr).unwrap();
        assert!(listener.accept_unless(&stop).unwrap().is_none());
        assert_eq!(net.ops(), 0, "the wake-up must not consume an op");
        // With the flag down the same call is `accept`: op 0 fires.
        stop.store(false, Ordering::SeqCst);
        let _client = TcpStream::connect(addr).unwrap();
        assert!(listener.accept_unless(&stop).is_err());
        assert_eq!(net.ops(), 1);
    }

    #[test]
    fn partition_is_sticky_until_heal() {
        let net = FaultNet::new(
            NetFaultPlan::default()
                .with_event(1, NetFaultKind::Partition)
                .with_event(4, NetFaultKind::Heal),
        );
        let t = Transport::faulted(net);
        let raw = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = raw.local_addr().unwrap().to_string();
        t.connect(&addr, Duration::from_secs(5))
            .expect("op 0: fine");
        for op in [1u64, 2, 3] {
            let err = t.connect(&addr, Duration::from_secs(5)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::ConnectionReset, "op {op}");
        }
        t.connect(&addr, Duration::from_secs(5))
            .expect("op 4: heal lets the op through");
        t.connect(&addr, Duration::from_secs(5))
            .expect("op 5: healthy");
    }

    #[test]
    fn acceptfail_spares_established_streams() {
        // Server ops: 0 accept (fine), 1 read hit by acceptfail (no-op),
        // 2 write (fine).
        let net = FaultNet::new(NetFaultPlan::default().with_event(1, NetFaultKind::AcceptFail));
        let t = Transport::faulted(net);
        let raw = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = raw.local_addr().unwrap().to_string();
        let listener = t.listener(raw);
        let mut client = TcpStream::connect(&addr).unwrap();
        client.write_all(b"ping").unwrap();
        let (mut served, _) = listener.accept().unwrap();
        let mut buf = [0u8; 4];
        served.read_exact(&mut buf).expect("admission-only fault");
        assert_eq!(&buf, b"ping");
    }
}
