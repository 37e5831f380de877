//! Poll-based event loop driving every nonblocking TCP socket in a
//! process.
//!
//! The blocking transport spent one OS thread per pooled client
//! connection (a parked reader) and one per accepted server socket. This
//! module replaces all of them with one event-loop thread per reactor,
//! multiplexing readiness over epoll through hand-rolled `extern "C"`
//! bindings. The crate builds on Linux only.
//!
//! ## Readiness state machine
//!
//! Each registered connection moves through three states:
//!
//! ```text
//! IN           reading only: the outbound buffer is empty, every frame
//!              is written inline by the sender's own thread.
//! IN|OUT       a sender hit a partial write / `WouldBlock`; leftover
//!              bytes sit in the outbound buffer and the reactor owns
//!              the flush. Armed via an `Arm` op on the loop thread,
//!              never by senders calling `epoll_ctl` directly.
//! closed       EOF, I/O error, or a sink verdict: the reactor removes
//!              the socket from the poll set, shuts it down, and fires
//!              [`Sink::on_closed`] exactly once.
//! ```
//!
//! Inbound bytes feed a [`FrameAssembler`] (incremental version of
//! `wire::read_frame`) and complete frame bodies are handed to the
//! connection's [`Sink`]. All `epoll_ctl` mutation happens on the loop
//! thread via an op queue, so fd lifecycle races (close vs. arm) cannot
//! happen by construction.

use crate::tcp::WireStats;
use crate::wire::MAX_FRAME_LEN;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// The longest a poll waits with no events: a liveness backstop only (a
/// stop or an op always pokes the wake pipe), with nothing run on it.
const POLL_BACKSTOP: Duration = Duration::from_millis(250);

/// Scratch read size per readiness event; frames larger than this simply
/// take several reads through the assembler.
const READ_CHUNK: usize = 64 * 1024;

// ---------------------------------------------------------------------------
// Incremental frame assembly
// ---------------------------------------------------------------------------

/// Incremental reassembler for the `wire.rs` frame format.
///
/// [`wire::read_frame`](crate::wire::read_frame) blocks until a whole
/// frame arrives; a reactor cannot. This type accepts bytes in whatever
/// chunks the socket produces — one byte at a time, half a frame, three
/// frames coalesced — and yields complete frame bodies in order. The
/// announced length is validated against [`MAX_FRAME_LEN`] as soon as the
/// four prefix bytes are present, before any body buffer grows.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameAssembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes read off a socket.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact consumed prefix before growing, so the buffer tracks the
        // unconsumed tail rather than the whole connection history.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame body, if one is fully buffered.
    ///
    /// Mirrors `wire::read_frame`: `Ok(None)` means "need more bytes",
    /// and an announced length past [`MAX_FRAME_LEN`] is rejected before
    /// allocation with the same `Corrupt` wording.
    pub fn next_frame(&mut self) -> waterwheel_core::Result<Option<Vec<u8>>> {
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            return Ok(None);
        }
        let mut len_buf = [0u8; 4];
        len_buf.copy_from_slice(&self.buf[self.pos..self.pos + 4]);
        let len = u32::from_le_bytes(len_buf) as usize;
        if len > MAX_FRAME_LEN {
            return Err(waterwheel_core::WwError::corrupt(
                "frame",
                format!("announced length {len} exceeds the {MAX_FRAME_LEN}-byte cap"),
            ));
        }
        if avail < 4 + len {
            return Ok(None);
        }
        let start = self.pos + 4;
        let body = self.buf[start..start + len].to_vec();
        self.pos = start + len;
        Ok(Some(body))
    }

    /// Bytes currently buffered but not yet yielded as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }
}

// ---------------------------------------------------------------------------
// Sink: what the reactor delivers into
// ---------------------------------------------------------------------------

/// Receiver side of a registered connection.
///
/// The reactor calls [`Sink::on_frame`] for every complete frame body
/// (on the loop thread — implementations must not block) and
/// [`Sink::on_closed`] exactly once when the connection leaves the poll
/// set for any reason.
pub trait Sink: Send + Sync {
    /// One complete frame body arrived. Returning `Err(reason)` makes
    /// the reactor close the connection with that reason.
    fn on_frame(&self, body: Vec<u8>) -> std::result::Result<(), &'static str>;

    /// The connection is gone: EOF, I/O error, sink verdict, or reactor
    /// shutdown. Fired exactly once, after the socket left the poll set.
    fn on_closed(&self, reason: &'static str);
}

// ---------------------------------------------------------------------------
// Connection handles
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct OutBuf {
    /// Bytes accepted by `send` but not yet written to the socket.
    queued: Vec<u8>,
    /// Whether EPOLLOUT is (or is about to be) armed for this socket.
    armed: bool,
}

#[derive(Debug)]
struct ConnInner {
    token: u64,
    stream: TcpStream,
    out: Mutex<OutBuf>,
    closed: AtomicBool,
    /// Set by the loop once the socket joined the poll set; senders
    /// queueing bytes before that must not request an arm (the loop
    /// arms at registration time based on the buffer).
    registered: AtomicBool,
}

/// Cloneable write/close handle for a connection registered with a
/// [`Reactor`].
///
/// `send` is safe from any thread: it writes inline while the socket
/// keeps up and spills into a reactor-flushed buffer on `WouldBlock`.
#[derive(Clone)]
pub struct ConnHandle {
    inner: Arc<ConnInner>,
    reactor: Weak<Reactor>,
}

impl std::fmt::Debug for ConnHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnHandle")
            .field("token", &self.inner.token)
            .field("closed", &self.inner.closed.load(Ordering::Relaxed))
            .finish()
    }
}

impl ConnHandle {
    /// Queues one encoded frame for transmission. Bytes are written
    /// inline when the socket accepts them; leftovers are flushed by the
    /// reactor on writability. Fails once the connection is closed.
    pub fn send(&self, frame: &[u8]) -> io::Result<()> {
        if self.inner.closed.load(Ordering::Acquire) {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "connection closed",
            ));
        }
        let mut out = self.inner.out.lock().unwrap_or_else(|e| e.into_inner());
        if out.queued.is_empty() {
            // Fast path: the socket has kept up so far; write inline from
            // the sender's thread and only involve the reactor on a
            // partial write.
            let mut off = 0;
            loop {
                if off == frame.len() {
                    return Ok(());
                }
                match (&self.inner.stream).write(&frame[off..]) {
                    Ok(0) => {
                        drop(out);
                        self.fail_socket();
                        return Err(io::Error::new(
                            io::ErrorKind::WriteZero,
                            "socket refused bytes",
                        ));
                    }
                    Ok(n) => off += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        out.queued.extend_from_slice(&frame[off..]);
                        break;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        drop(out);
                        self.fail_socket();
                        return Err(e);
                    }
                }
            }
        } else {
            out.queued.extend_from_slice(frame);
        }
        // Leftover bytes: hand the flush to the reactor. Arming goes
        // through the op queue so all epoll_ctl calls stay on the loop
        // thread; `armed` (under the out lock) dedupes requests.
        if !out.armed && self.inner.registered.load(Ordering::Acquire) {
            out.armed = true;
            drop(out);
            if let Some(r) = self.reactor.upgrade() {
                r.state.enqueue(Op::Arm(self.inner.token));
            }
        }
        Ok(())
    }

    /// Initiates teardown: shuts the socket down both ways so the loop
    /// observes EOF and runs the close path (firing
    /// [`Sink::on_closed`]). Safe to call from any thread, idempotent.
    pub fn close(&self) {
        self.fail_socket();
    }

    /// Whether the reactor has torn this connection down (or teardown
    /// has been requested).
    pub fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::Acquire)
    }

    /// Local address of the underlying socket.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.inner.stream.local_addr()
    }

    fn fail_socket(&self) {
        self.inner.closed.store(true, Ordering::Release);
        let _ = self.inner.stream.shutdown(Shutdown::Both);
        if let Some(r) = self.reactor.upgrade() {
            r.state.sweep.store(true, Ordering::Release);
            r.state.poller.wake();
        }
    }
}

/// Handle for a listener registered with [`Reactor::listen`]. Closing it
/// removes the listener from the poll set and closes the socket, so new
/// connection attempts are refused.
#[derive(Debug)]
pub struct ListenerHandle {
    token: u64,
    reactor: Weak<Reactor>,
}

impl ListenerHandle {
    /// Synchronously deregisters and closes the listening socket. After
    /// this returns, connection attempts to the address are refused.
    pub fn close(&self) {
        if let Some(r) = self.reactor.upgrade() {
            let (done, closed) = mpsc::channel();
            r.state.enqueue(Op::Del(self.token, done));
            let _ = closed.recv();
        }
    }
}

// ---------------------------------------------------------------------------
// Loop plumbing
// ---------------------------------------------------------------------------

type AcceptFn = Box<dyn Fn(TcpStream) + Send + Sync>;

enum Op {
    /// Register a connection: add to the poll set and start delivering.
    AddConn(Arc<ConnInner>, Arc<dyn Sink>),
    /// Register a listener: accept-ready callbacks.
    AddListener(u64, TcpListener, AcceptFn),
    /// Arm EPOLLOUT for a connection with queued outbound bytes.
    Arm(u64),
    /// Deregister and drop an entry, acking when done (listener
    /// shutdown path).
    Del(u64, Sender<()>),
}

enum Entry {
    Conn {
        conn: Arc<ConnInner>,
        sink: Arc<dyn Sink>,
        assembler: FrameAssembler,
    },
    Listener {
        listener: TcpListener,
        on_accept: AcceptFn,
    },
}

/// What the loop thread shares with the handles: the op queue, the
/// poller, and the two flags that make it look beyond its events.
struct LoopState {
    ops: Mutex<Vec<Op>>,
    poller: Poller,
    /// Set when a connection was closed externally (handle close,
    /// transport drop); tells the loop to sweep for dead entries.
    sweep: AtomicBool,
    /// Set by the reactor's drop; the loop fails what it holds and leaves.
    stopping: AtomicBool,
}

impl LoopState {
    fn enqueue(&self, op: Op) {
        self.ops.lock().unwrap_or_else(|e| e.into_inner()).push(op);
        self.poller.wake();
    }
}

/// The reactor: one event-loop thread owning an epoll instance and a
/// token-keyed table of connections and listeners.
pub struct Reactor {
    state: Arc<LoopState>,
    thread: Option<JoinHandle<()>>,
    next_token: AtomicU64,
    /// Handles hold a `Weak` back-reference, so they keep no reactor alive.
    me: Weak<Reactor>,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("stopping", &self.state.stopping.load(Ordering::Relaxed))
            .finish()
    }
}

impl Reactor {
    /// Spawns a reactor and its event-loop thread. Readiness wakeups are
    /// charged to `wire.reactor_wakeups`.
    pub fn new(wire: Arc<WireStats>) -> io::Result<Arc<Self>> {
        let state = Arc::new(LoopState {
            ops: Mutex::new(Vec::new()),
            poller: Poller::new()?,
            sweep: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
        });
        let looped = Arc::clone(&state);
        let thread = std::thread::Builder::new()
            .name("ww-reactor".into())
            .spawn(move || event_loop(&looped, &wire))
            .expect("spawn reactor thread");
        Ok(Arc::new_cyclic(|me| Reactor {
            state,
            thread: Some(thread),
            next_token: AtomicU64::new(1),
            me: me.clone(),
        }))
    }

    /// Prepares a socket for registration: switches it to nonblocking
    /// mode and builds the write/close handle. The connection is not in
    /// the poll set until [`Reactor::activate`] attaches its sink —
    /// two-phase so the sink can capture the handle.
    pub fn attach(&self, stream: TcpStream) -> io::Result<ConnHandle> {
        stream.set_nonblocking(true)?;
        let inner = Arc::new(ConnInner {
            token: self.next_token.fetch_add(1, Ordering::Relaxed),
            stream,
            out: Mutex::new(OutBuf::default()),
            closed: AtomicBool::new(false),
            registered: AtomicBool::new(false),
        });
        Ok(ConnHandle {
            inner,
            reactor: self.me.clone(),
        })
    }

    /// Completes registration of an attached connection: the socket
    /// joins the poll set and `sink` starts receiving frames.
    pub fn activate(&self, handle: &ConnHandle, sink: Arc<dyn Sink>) {
        self.state.enqueue(Op::AddConn(handle.inner.clone(), sink));
    }

    /// Registers a listening socket; `on_accept` runs on the loop thread
    /// for every accepted connection (it should do no more than
    /// configure and re-register the socket).
    pub fn listen(
        &self,
        listener: TcpListener,
        on_accept: impl Fn(TcpStream) + Send + Sync + 'static,
    ) -> io::Result<ListenerHandle> {
        listener.set_nonblocking(true)?;
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        self.state
            .enqueue(Op::AddListener(token, listener, Box::new(on_accept)));
        Ok(ListenerHandle {
            token,
            reactor: self.me.clone(),
        })
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.state.stopping.store(true, Ordering::Release);
        self.state.poller.wake();
        // A callback on the loop thread may hold the last handle (an
        // accept upgrading its `Weak`, a sink owning the reactor); then
        // this drop runs on the loop thread, which must not join itself —
        // it sees `stopping` on its next turn and leaves.
        if let Some(thread) = self.thread.take() {
            if thread.thread().id() != std::thread::current().id() {
                let _ = thread.join();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

fn event_loop(state: &LoopState, wire: &WireStats) {
    let mut entries: HashMap<u64, Entry> = HashMap::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut events: Vec<(u64, Readiness)> = Vec::new();
    loop {
        // Apply queued registration / arm / deregistration ops first, so
        // a wakeup is never consumed without its op.
        let ops = std::mem::take(&mut *state.ops.lock().unwrap_or_else(|e| e.into_inner()));
        for op in ops {
            apply_op(&state.poller, &mut entries, op);
        }
        if state.stopping.load(Ordering::Acquire) {
            break;
        }

        events.clear();
        if state.poller.wait(&mut events, POLL_BACKSTOP).is_err() {
            break;
        }
        if !events.is_empty() {
            wire.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
        }

        for (token, ready) in events.drain(..) {
            let closed = match entries.get_mut(&token) {
                Some(Entry::Listener {
                    listener,
                    on_accept,
                }) => {
                    if ready.readable {
                        accept_ready(listener, on_accept);
                    }
                    None
                }
                Some(Entry::Conn {
                    conn,
                    sink,
                    assembler,
                }) => handle_conn_ready(&state.poller, conn, sink, assembler, ready, &mut scratch),
                None => None,
            };
            if let Some(reason) = closed {
                close_entry(&state.poller, &mut entries, token, reason);
            }
        }

        // Connections shut down externally (ConnHandle::close, transport
        // drop) also surface as readiness events, but the sweep flag makes
        // teardown deterministic.
        if state.sweep.swap(false, Ordering::AcqRel) {
            let dead: Vec<u64> = entries
                .iter()
                .filter_map(|(t, e)| match e {
                    Entry::Conn { conn, .. } if conn.closed.load(Ordering::Acquire) => Some(*t),
                    _ => None,
                })
                .collect();
            for token in dead {
                close_entry(&state.poller, &mut entries, token, "connection lost");
            }
        }
    }
    // Reactor is shutting down: fail every connection so blocked senders
    // wake with a connection-lost verdict instead of hanging.
    let tokens: Vec<u64> = entries.keys().copied().collect();
    for token in tokens {
        close_entry(&state.poller, &mut entries, token, "connection lost");
    }
}

fn apply_op(poller: &Poller, entries: &mut HashMap<u64, Entry>, op: Op) {
    match op {
        Op::AddConn(conn, sink) => {
            if conn.closed.load(Ordering::Acquire) {
                sink.on_closed("connection lost");
                return;
            }
            if poller
                .register(conn.stream.as_raw_fd(), conn.token)
                .is_err()
            {
                conn.closed.store(true, Ordering::Release);
                sink.on_closed("connection lost");
                return;
            }
            conn.registered.store(true, Ordering::Release);
            // A sender may have queued bytes between attach and now; the
            // registration just made was read-only, so arm the write side
            // if anything is waiting.
            {
                let mut out = conn.out.lock().unwrap_or_else(|e| e.into_inner());
                if !out.queued.is_empty() {
                    out.armed = true;
                    let _ = poller.modify(conn.stream.as_raw_fd(), conn.token, true);
                }
            }
            entries.insert(
                conn.token,
                Entry::Conn {
                    conn,
                    sink,
                    assembler: FrameAssembler::new(),
                },
            );
        }
        Op::AddListener(token, listener, on_accept) => {
            if poller.register(listener.as_raw_fd(), token).is_err() {
                return;
            }
            entries.insert(
                token,
                Entry::Listener {
                    listener,
                    on_accept,
                },
            );
        }
        Op::Arm(token) => {
            if let Some(Entry::Conn { conn, .. }) = entries.get(&token) {
                let _ = poller.modify(conn.stream.as_raw_fd(), token, true);
            }
        }
        Op::Del(token, done) => {
            close_entry(poller, entries, token, "connection lost");
            let _ = done.send(());
        }
    }
}

fn accept_ready(listener: &TcpListener, on_accept: &AcceptFn) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => on_accept(stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // Transient per-connection accept errors (ECONNABORTED and
            // friends): skip the socket, keep the listener.
            Err(_) => break,
        }
    }
}

/// Handles one readiness event for a connection. Returns `Some(reason)`
/// when the connection must be torn down.
fn handle_conn_ready(
    poller: &Poller,
    conn: &Arc<ConnInner>,
    sink: &Arc<dyn Sink>,
    assembler: &mut FrameAssembler,
    ready: Readiness,
    scratch: &mut [u8],
) -> Option<&'static str> {
    if ready.error {
        return Some("connection lost");
    }
    if ready.writable {
        if let Some(reason) = flush_outbound(poller, conn) {
            return Some(reason);
        }
    }
    if ready.readable {
        loop {
            match (&conn.stream).read(scratch) {
                Ok(0) => return Some("connection closed by peer"),
                Ok(n) => {
                    assembler.push(&scratch[..n]);
                    loop {
                        match assembler.next_frame() {
                            Ok(Some(body)) => {
                                if let Err(reason) = sink.on_frame(body) {
                                    return Some(reason);
                                }
                            }
                            Ok(None) => break,
                            Err(_) => return Some("frame exceeded the length cap"),
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Some("connection lost"),
            }
        }
    }
    None
}

/// Writes queued outbound bytes until the socket blocks or the buffer
/// drains; disarms EPOLLOUT when fully flushed. Runs on the loop thread
/// only.
fn flush_outbound(poller: &Poller, conn: &Arc<ConnInner>) -> Option<&'static str> {
    let mut out = conn.out.lock().unwrap_or_else(|e| e.into_inner());
    let mut off = 0;
    let verdict = loop {
        if off == out.queued.len() {
            break None;
        }
        match (&conn.stream).write(&out.queued[off..]) {
            Ok(0) => break Some("connection lost"),
            Ok(n) => off += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break None,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break Some("connection lost"),
        }
    };
    out.queued.drain(..off);
    if verdict.is_none() && out.queued.is_empty() && out.armed {
        // Disarm under the out lock so a concurrent sender's
        // queue-then-arm cannot interleave with the transition.
        out.armed = false;
        if poller
            .modify(conn.stream.as_raw_fd(), conn.token, false)
            .is_err()
        {
            return Some("connection lost");
        }
    }
    verdict
}

/// Removes one entry from the loop: poll-set removal, socket shutdown,
/// then the sink's single `on_closed`.
fn close_entry(
    poller: &Poller,
    entries: &mut HashMap<u64, Entry>,
    token: u64,
    reason: &'static str,
) {
    match entries.remove(&token) {
        Some(Entry::Conn { conn, sink, .. }) => {
            poller.deregister(conn.stream.as_raw_fd());
            conn.closed.store(true, Ordering::Release);
            let _ = conn.stream.shutdown(Shutdown::Both);
            sink.on_closed(reason);
        }
        // Dropping the listener closes the fd: new connection attempts
        // are refused from here on.
        Some(Entry::Listener { listener, .. }) => poller.deregister(listener.as_raw_fd()),
        None => {}
    }
}

// ---------------------------------------------------------------------------
// Poller: epoll
// ---------------------------------------------------------------------------

/// One readiness report for a registered token.
#[derive(Debug, Clone, Copy, Default)]
struct Readiness {
    readable: bool,
    writable: bool,
    error: bool,
}

mod sys {
    //! Minimal epoll + pipe bindings, hand-rolled (no libc crate).
    use std::io;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    const O_NONBLOCK: i32 = 0x800;
    const O_CLOEXEC: i32 = 0x80000;
    const EPOLL_CLOEXEC: i32 = O_CLOEXEC;

    /// Kernel ABI for `struct epoll_event`: packed on x86, naturally
    /// aligned elsewhere.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn pipe2(fds: *mut i32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    pub fn create() -> io::Result<i32> {
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(epfd)
    }

    pub fn make_pipe() -> io::Result<(i32, i32)> {
        let mut fds = [0i32; 2];
        if unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok((fds[0], fds[1]))
    }

    pub fn ctl(epfd: i32, op: i32, fd: i32, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        if unsafe { epoll_ctl(epfd, op, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn wait(epfd: i32, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let n =
                unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms) };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    pub fn drain_pipe(fd: i32) {
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe { read(fd, buf.as_mut_ptr(), buf.len()) };
            if n <= 0 {
                break;
            }
        }
    }

    pub fn poke_pipe(fd: i32) {
        let byte = 1u8;
        unsafe {
            let _ = write(fd, &byte, 1);
        }
    }

    pub fn close_fd(fd: i32) {
        unsafe {
            let _ = close(fd);
        }
    }
}

const WAKE_TOKEN: u64 = u64::MAX;

struct Poller {
    epfd: i32,
    wake_r: i32,
    wake_w: i32,
}

impl Poller {
    fn new() -> io::Result<Self> {
        let epfd = sys::create()?;
        let (wake_r, wake_w) = match sys::make_pipe() {
            Ok(p) => p,
            Err(e) => {
                sys::close_fd(epfd);
                return Err(e);
            }
        };
        sys::ctl(epfd, sys::EPOLL_CTL_ADD, wake_r, sys::EPOLLIN, WAKE_TOKEN)?;
        Ok(Poller {
            epfd,
            wake_r,
            wake_w,
        })
    }

    fn register(&self, fd: RawFd, token: u64) -> io::Result<()> {
        sys::ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, sys::EPOLLIN, token)
    }

    fn modify(&self, fd: RawFd, token: u64, want_write: bool) -> io::Result<()> {
        let out = if want_write { sys::EPOLLOUT } else { 0 };
        sys::ctl(self.epfd, sys::EPOLL_CTL_MOD, fd, sys::EPOLLIN | out, token)
    }

    fn deregister(&self, fd: RawFd) {
        let _ = sys::ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, 0);
    }

    fn wake(&self) {
        sys::poke_pipe(self.wake_w);
    }

    fn wait(&self, out: &mut Vec<(u64, Readiness)>, timeout: Duration) -> io::Result<()> {
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 64];
        let n = sys::wait(self.epfd, &mut events, timeout.as_millis() as i32)?;
        for ev in &events[..n] {
            let data = ev.data;
            let bits = ev.events;
            if data == WAKE_TOKEN {
                sys::drain_pipe(self.wake_r);
                continue;
            }
            out.push((
                data,
                Readiness {
                    readable: bits & (sys::EPOLLIN | sys::EPOLLHUP) != 0,
                    writable: bits & sys::EPOLLOUT != 0,
                    error: bits & sys::EPOLLERR != 0,
                },
            ));
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        sys::close_fd(self.wake_r);
        sys::close_fd(self.wake_w);
        sys::close_fd(self.epfd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    #[test]
    fn assembler_handles_split_and_coalesced_frames() {
        let f1 = wire::encode_response_ok(7, &crate::envelope::Response::Pong);
        let f2 = wire::encode_response_ok(9, &crate::envelope::Response::Ack);
        let mut joined = f1.clone();
        joined.extend_from_slice(&f2);

        // Byte-at-a-time.
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for b in &joined {
            asm.push(std::slice::from_ref(b));
            while let Some(body) = asm.next_frame().unwrap() {
                got.push(body);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], f1[4..].to_vec());
        assert_eq!(got[1], f2[4..].to_vec());
        assert_eq!(asm.buffered(), 0);

        // Whole burst at once.
        let mut asm = FrameAssembler::new();
        asm.push(&joined);
        assert_eq!(asm.next_frame().unwrap().unwrap(), f1[4..].to_vec());
        assert_eq!(asm.next_frame().unwrap().unwrap(), f2[4..].to_vec());
        assert!(asm.next_frame().unwrap().is_none());
    }

    #[test]
    fn assembler_rejects_oversized_announcements_before_buffering() {
        let mut asm = FrameAssembler::new();
        let huge = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes();
        asm.push(&huge);
        let err = asm.next_frame().unwrap_err();
        assert!(err.to_string().contains("cap"), "got: {err}");
    }

    struct CountingSink {
        frames: AtomicUsize,
        closed: AtomicUsize,
    }

    impl Sink for CountingSink {
        fn on_frame(&self, _body: Vec<u8>) -> std::result::Result<(), &'static str> {
            self.frames.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
        fn on_closed(&self, _reason: &'static str) {
            self.closed.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn reactor_moves_frames_between_two_registered_sockets() {
        let wire_stats = Arc::new(WireStats::default());
        let reactor = Reactor::new(wire_stats.clone()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accepted: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let accepted2 = accepted.clone();
        let _lh = reactor
            .listen(listener, move |s| {
                accepted2.lock().unwrap().push(s);
            })
            .unwrap();

        let client = TcpStream::connect(addr).unwrap();
        let sink = Arc::new(CountingSink {
            frames: AtomicUsize::new(0),
            closed: AtomicUsize::new(0),
        });
        let handle = reactor.attach(client).unwrap();
        reactor.activate(&handle, sink.clone());

        // Wait for the accept to land, then write a frame from the
        // server side with plain blocking I/O.
        let deadline = Instant::now() + Duration::from_secs(5);
        let server_side = loop {
            if let Some(s) = accepted.lock().unwrap().pop() {
                break s;
            }
            assert!(Instant::now() < deadline, "accept never fired");
            std::thread::sleep(Duration::from_millis(5));
        };
        let frame = wire::encode_response_ok(1, &crate::envelope::Response::Pong);
        (&server_side).write_all(&frame).unwrap();

        let deadline = Instant::now() + Duration::from_secs(5);
        while sink.frames.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "frame never delivered");
            std::thread::sleep(Duration::from_millis(5));
        }

        // Outbound path: send through the handle, read on the blocking side.
        handle.send(&frame).unwrap();
        let mut echoed = vec![0u8; frame.len()];
        (&server_side).read_exact(&mut echoed).unwrap();
        assert_eq!(echoed, frame);

        // Peer hangup tears the connection down exactly once.
        drop(server_side);
        let deadline = Instant::now() + Duration::from_secs(5);
        while sink.closed.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "close never delivered");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(sink.closed.load(Ordering::SeqCst), 1);
        assert!(handle.is_closed());
        assert!(wire_stats.reactor_wakeups.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn closing_the_listener_refuses_new_connections() {
        let reactor = Reactor::new(Arc::new(WireStats::default())).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let lh = reactor.listen(listener, |_s| {}).unwrap();
        // Prove the listener accepts, then close it and expect refusal.
        TcpStream::connect(addr).unwrap();
        lh.close();
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
            "listener should refuse after close"
        );
    }

    /// Reports, when dropped, whether that happened while unwinding from
    /// a panic.
    struct DropWitness(std::sync::mpsc::Sender<bool>);

    impl Drop for DropWitness {
        fn drop(&mut self) {
            let _ = self.0.send(std::thread::panicking());
        }
    }

    /// Owns the last reactor handle and lets go of it inside its first
    /// `on_frame`, on the loop thread.
    struct OwningSink {
        reactor: Mutex<Option<Arc<Reactor>>>,
        witness: Mutex<Option<DropWitness>>,
        closed: std::sync::mpsc::Sender<&'static str>,
    }

    impl Sink for OwningSink {
        fn on_frame(&self, _body: Vec<u8>) -> std::result::Result<(), &'static str> {
            let _witness = self.witness.lock().unwrap().take();
            drop(self.reactor.lock().unwrap().take());
            Ok(())
        }
        fn on_closed(&self, reason: &'static str) {
            let _ = self.closed.send(reason);
        }
    }

    #[test]
    fn the_loop_thread_may_hold_the_last_handle() {
        use std::sync::mpsc::channel;
        let reactor = Reactor::new(Arc::new(WireStats::default())).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let (dropped_tx, dropped_rx) = channel();
        let (closed_tx, closed_rx) = channel();
        let handle = reactor.attach(accepted).unwrap();
        let sink = Arc::new(OwningSink {
            reactor: Mutex::new(Some(Arc::clone(&reactor))),
            witness: Mutex::new(Some(DropWitness(dropped_tx))),
            closed: closed_tx,
        });
        reactor.activate(&handle, sink);
        // The owner lets go first; the sink now holds the last handle, and
        // the frame below makes it drop that handle on the loop thread —
        // which must not join itself.
        drop(reactor);
        let frame = wire::encode_response_ok(1, &crate::envelope::Response::Pong);
        (&peer).write_all(&frame).unwrap();
        let unwinding = dropped_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(!unwinding, "the reactor was dropped by a panicking thread");
        // The loop then sees the stop and fails what it still holds.
        let reason = closed_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(reason, "connection lost");
        assert!(handle.is_closed());
    }
}
