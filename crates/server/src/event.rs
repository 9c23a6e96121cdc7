//! The event-driven serving core: one reactor thread multiplexing every
//! connection over a readiness poller, plus a fixed worker pool executing
//! parsed requests.
//!
//! ## Life of a query
//!
//! 1. The **reactor** owns the listener and every connection's socket,
//!    read buffer, and outbox. On read readiness it drains the socket into
//!    the connection's buffer and splits off complete request lines
//!    (bounded by [`MAX_LINE_BYTES`]).
//! 2. A parsed line is pushed onto the **worker queue** together with the
//!    connection's [`Executor`] — the executor is *checked out*, which is
//!    what serializes a session: at most one request per connection is in
//!    flight, later pipelined lines stay buffered until the executor
//!    returns.
//! 3. A **worker** pops the item, runs `execute_framed` (single-flight
//!    table → point cache → its byte slot → render), and pushes the
//!    framed reply plus the executor onto the completion list, waking the
//!    reactor through the poller's [`Waker`]. Only then does it free the
//!    response the reply was rendered from (a cold point's whole snapshot).
//! 4. The reactor reinstalls the executor, appends the reply to the
//!    connection's outbox, and writes as much as the socket accepts,
//!    keeping write interest registered for the rest.
//!
//! ## Backpressure and limits
//!
//! Both directions are bounded. A connection whose executor is checked
//! out and whose buffer already holds [`MAX_LINE_BYTES`] stops being read
//! until the executor returns, and a connection whose unwritten reply
//! backlog exceeds [`OUTBOX_HIGH_WATER`] has its reads masked *and* its
//! buffered lines left unparsed until the socket drains below the mark.
//! A client cannot grow server memory by pipelining faster than it
//! executes or reads. Connections over the cap are refused with
//! `ERR server busy`.
//!
//! ## Drain
//!
//! Shutdown drains with a deadline: idle connections (executor home,
//! outbox empty) are closed immediately — the client observes EOF — while
//! connections with a request in flight get their response written in
//! full before closing. Whatever remains past the deadline is
//! force-closed; executors still out with a worker are dropped (releasing
//! their pool overlays) when the completion surfaces.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use epoll::{Events, Interest, Poller, Token, Waker};
use historygraph::ShardedGraphManager;
use histql::{
    frame_error, metrics_report, render_prometheus, Executor, FlightTable, MetricsHub, Reply,
    Response, ServerStats,
};

use crate::{http, ServerConfig, MAX_LINE_BYTES};

/// Poller token of the listening socket; connection tokens start above it.
const LISTENER_TOKEN: usize = 0;

/// Poller token of the optional metrics scrape listener. Scrape-connection
/// tokens are allocated from [`FIRST_HTTP_TOKEN`]`..2^SLOT_BITS` — histql
/// connection tokens carry a generation ≥ 1 in their high bits, so every
/// one of them is at least `2^SLOT_BITS + 1` and the ranges cannot collide.
const METRICS_LISTENER_TOKEN: usize = 1;

/// First token handed to an accepted metrics scrape connection.
const FIRST_HTTP_TOKEN: usize = 2;

/// Idle connections are swept after this long without a request, so
/// half-dead peers cannot pin a connection slot forever.
const IDLE_TIMEOUT: Duration = Duration::from_secs(300);

/// How often the reactor wakes to run the idle sweep.
const SWEEP_INTERVAL: Duration = Duration::from_secs(30);

/// Soft cap on a connection's buffered, unwritten reply bytes. Over the
/// mark the connection's reads are masked and its buffered lines stay
/// unparsed until the socket drains the backlog, so a client pipelining
/// requests without reading replies holds at most one in-flight reply
/// plus roughly this much backlog. The cap gates *additional* requests,
/// not frame size — a single reply larger than this still goes out.
const OUTBOX_HIGH_WATER: usize = 256 * 1024;

/// One request checked out to the worker pool.
struct Work {
    token: usize,
    line: String,
    executor: Executor,
    /// When the reactor queued this request (queue-wait phase timing).
    enqueued_at: Instant,
}

/// A finished request on its way back to the reactor.
struct Completion {
    token: usize,
    reply: Reply,
    executor: Executor,
}

/// The queue feeding the worker pool.
#[derive(Default)]
struct WorkQueue {
    state: Mutex<(VecDeque<Work>, bool)>,
    cv: Condvar,
}

impl WorkQueue {
    fn push(&self, work: Work) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.0.push_back(work);
        drop(state);
        self.cv.notify_one();
    }

    /// Blocks for the next item; `None` once closed and drained.
    fn pop(&self) -> Option<Work> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(work) = state.0.pop_front() {
                return Some(work);
            }
            if state.1 {
                return None;
            }
            state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).1 = true;
        self.cv.notify_all();
    }
}

/// One multiplexed connection, owned by the reactor.
struct Conn {
    stream: TcpStream,
    /// Unparsed request bytes.
    read_buf: Vec<u8>,
    /// Reply bytes not yet written, from `out_pos` on.
    outbox: Vec<u8>,
    out_pos: usize,
    /// The session's executor; `None` while a worker runs its request.
    executor: Option<Executor>,
    /// Close once the outbox is flushed; parse no further requests.
    closing: bool,
    /// The peer closed its write half (EOF observed).
    peer_eof: bool,
    /// Interest currently registered with the poller ([`Interest::NONE`]
    /// means the fd is deregistered — backpressure masking).
    interest: Interest,
    /// Last time a complete request arrived (for the idle sweep).
    last_activity: Instant,
    /// Accept time, consumed when the first request line is parsed (the
    /// accept-to-parse phase histogram).
    accepted_at: Option<Instant>,
    /// When the outbox last went from empty to non-empty (the outbox-flush
    /// phase histogram; fast-path replies written straight to the socket
    /// never enter it).
    outbox_since: Option<Instant>,
}

impl Conn {
    fn busy(&self) -> bool {
        self.executor.is_none()
    }

    fn has_output(&self) -> bool {
        self.out_pos < self.outbox.len()
    }

    /// Appends reply bytes to the outbox, stamping the flush-phase start
    /// when the outbox transitions from empty to non-empty.
    fn buffer_output(&mut self, bytes: &[u8]) {
        if !self.has_output() && !bytes.is_empty() {
            self.outbox_since = Some(Instant::now());
        }
        self.outbox.extend_from_slice(bytes);
    }

    /// Write-side backpressure: the unwritten reply backlog is over
    /// [`OUTBOX_HIGH_WATER`], so no further requests may be parsed.
    fn output_backlogged(&self) -> bool {
        self.outbox.len() - self.out_pos > OUTBOX_HIGH_WATER
    }

    /// The readiness classes this connection currently needs. Reads are
    /// masked while the executor is out and the buffer is already full,
    /// while the outbox is over its high-water mark (backpressure in
    /// either direction), and once the connection is closing or the peer
    /// EOFed (no further requests will be parsed).
    fn desired_interest(&self) -> Interest {
        let wants_read = !(self.closing
            || self.peer_eof
            || self.output_backlogged()
            || (self.busy() && self.read_buf.len() >= MAX_LINE_BYTES));
        match (wants_read, self.has_output()) {
            (true, true) => Interest::BOTH,
            (true, false) => Interest::READABLE,
            (false, true) => Interest::WRITABLE,
            (false, false) => Interest::NONE,
        }
    }
}

/// Outcome of scanning the read buffer for the next request line.
enum NextLine {
    Line(String),
    TooLong,
    NeedMore,
}

/// Splits the next `\n`-terminated line off `buf` (lossily decoded). At
/// EOF a non-empty unterminated tail still counts as a line.
fn take_line(buf: &mut Vec<u8>, eof: bool) -> NextLine {
    if let Some(i) = buf.iter().position(|&b| b == b'\n') {
        if i + 1 > MAX_LINE_BYTES {
            return NextLine::TooLong;
        }
        let line = String::from_utf8_lossy(&buf[..=i]).into_owned();
        buf.drain(..=i);
        return NextLine::Line(line);
    }
    if buf.len() > MAX_LINE_BYTES {
        return NextLine::TooLong;
    }
    if eof && !buf.is_empty() {
        let line = String::from_utf8_lossy(buf).into_owned();
        buf.clear();
        return NextLine::Line(line);
    }
    NextLine::NeedMore
}

/// The event-driven serving core behind a [`crate::ServerHandle`].
pub(crate) struct Core {
    shutdown: Arc<AtomicBool>,
    force: Arc<AtomicBool>,
    /// Live connections plus closed connections whose executor is still
    /// checked out (their overlays are not yet released).
    active: Arc<AtomicUsize>,
    waker: Waker,
    reactor: Option<JoinHandle<()>>,
}

impl Core {
    pub(crate) fn active(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    pub(crate) fn shutdown_within(&mut self, deadline: Duration) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.waker.wake();
        if !self.await_quiesce(deadline) {
            self.force.store(true, Ordering::SeqCst);
            self.waker.wake();
            self.await_quiesce(deadline);
        }
        if let Some(t) = self.reactor.take() {
            let _ = t.join();
        }
    }

    fn await_quiesce(&self, deadline: Duration) -> bool {
        let until = Instant::now() + deadline;
        while self.active.load(Ordering::SeqCst) > 0 {
            if Instant::now() >= until {
                return false;
            }
            thread::sleep(Duration::from_millis(5));
        }
        true
    }
}

/// Starts the reactor and worker pool; returns once the listener is bound.
pub(crate) fn start(
    router: ShardedGraphManager,
    config: &ServerConfig,
) -> io::Result<(SocketAddr, Option<SocketAddr>, Core)> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let shutdown = Arc::new(AtomicBool::new(false));
    let force = Arc::new(AtomicBool::new(false));
    let active = Arc::new(AtomicUsize::new(0));
    let stats = Arc::new(ServerStats::new());
    let flights = Arc::new(FlightTable::new());
    let hub = config.metrics_enabled.then(|| {
        let hub = MetricsHub::new();
        hub.set_slow_threshold_us(config.slow_query_us);
        Arc::new(hub)
    });
    let queue = Arc::new(WorkQueue::default());
    let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));

    let mut poller = Poller::new()?;
    let waker = poller.waker()?;
    poller.register(
        listener.as_raw_fd(),
        Token(LISTENER_TOKEN),
        Interest::READABLE,
    )?;

    // The scrape endpoint shares the reactor: its listener is just another
    // readiness source, and scrape connections are served between histql
    // events without a dedicated thread.
    let metrics_listener = match &config.metrics_addr {
        Some(addr) => {
            let l = TcpListener::bind(addr)?;
            l.set_nonblocking(true)?;
            poller.register(
                l.as_raw_fd(),
                Token(METRICS_LISTENER_TOKEN),
                Interest::READABLE,
            )?;
            Some(l)
        }
        None => None,
    };
    let metrics_addr = metrics_listener
        .as_ref()
        .map(|l| l.local_addr())
        .transpose()?;

    let workers = config.worker_threads.max(1);
    stats.workers.store(workers as u64, Ordering::Relaxed);
    let timeout_us = config.request_timeout_ms.saturating_mul(1000);
    for _ in 0..workers {
        let queue = Arc::clone(&queue);
        let completions = Arc::clone(&completions);
        let worker_waker = poller.waker()?;
        let stats = Arc::clone(&stats);
        let hub = hub.clone();
        thread::spawn(move || {
            while let Some(mut work) = queue.pop() {
                stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
                let waited_us = work.enqueued_at.elapsed().as_micros() as u64;
                if let Some(hub) = &hub {
                    hub.phase_queue_wait.record(waited_us);
                    hub.path_worker.inc();
                    // The executor folds the wait into the request's total
                    // time for the slow-query threshold.
                    work.executor.note_queue_wait(waited_us);
                }
                // A request whose deadline expired while it sat in the
                // queue is refused before any side effect runs — under
                // overload this sheds exactly the work whose caller has
                // already given up. A deadline that expires mid-service is
                // only counted: aborting a half-executed request could
                // leave the session's overlays or the tail shard torn.
                let reply = if timeout_us > 0 && waited_us >= timeout_us {
                    if let Some(hub) = &hub {
                        hub.deadline_exceeded.inc();
                    }
                    Reply::Owned(frame_error(
                        "deadline exceeded: request timed out in queue",
                        work.executor.protocol(),
                    ))
                } else {
                    let reply = work.executor.execute_framed(&work.line);
                    if timeout_us > 0 && work.enqueued_at.elapsed().as_micros() as u64 > timeout_us
                    {
                        if let Some(hub) = &hub {
                            hub.deadline_exceeded.inc();
                        }
                    }
                    reply
                };
                // The response the reply was rendered from is freed here,
                // after the reactor has been handed the reply — never on
                // the reactor, and not before the reply is queued.
                let rendered = work.executor.take_rendered();
                completions
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(Completion {
                        token: work.token,
                        reply,
                        executor: work.executor,
                    });
                worker_waker.wake();
                drop(rendered);
            }
        });
    }

    let reactor = {
        let shutdown = Arc::clone(&shutdown);
        let force = Arc::clone(&force);
        let active = Arc::clone(&active);
        let max_connections = config.max_connections;
        let max_queue_depth = config.max_queue_depth;
        thread::spawn(move || {
            let mut r = Reactor {
                poller,
                listener: Some(listener),
                metrics_listener,
                router,
                conns: ConnSlab::new(),
                http_conns: HashMap::new(),
                next_http_token: FIRST_HTTP_TOKEN,
                next_session: 1,
                pending_exec: 0,
                queue,
                completions,
                stats,
                flights,
                hub,
                active,
                max_connections,
                max_queue_depth,
                draining: false,
                scratch: vec![0u8; 16 * 1024],
            };
            r.run(&shutdown, &force);
            // Closing the queue releases the workers once it drains; any
            // completion they still push simply drops its executor when
            // the last queue/completions reference goes away.
            r.queue.close();
        })
    };

    Ok((
        addr,
        metrics_addr,
        Core {
            shutdown,
            force,
            active,
            waker,
            reactor: Some(reactor),
        },
    ))
}

/// Slot half of a slab token; the rest is the slot's reuse generation.
/// 2^20 slots bounds concurrent connections at ~1M, far above any
/// realistic `max_connections`, while leaving ≥ 12 generation bits even
/// on 32-bit targets.
const SLOT_BITS: u32 = 20;
const SLOT_MASK: usize = (1 << SLOT_BITS) - 1;

/// Generation-tagged connection slab. Tokens index a contiguous slot
/// vector directly — no hashing on the per-event hot path — and carry the
/// slot's generation so a completion for a closed connection can never
/// reach a later connection that reused the slot. Slot numbers are offset
/// by one inside the token so no token collides with [`LISTENER_TOKEN`].
struct ConnSlab {
    slots: Vec<(usize, Option<Conn>)>,
    free: Vec<usize>,
    live: usize,
}

impl ConnSlab {
    fn new() -> ConnSlab {
        ConnSlab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    fn len(&self) -> usize {
        self.live
    }

    fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn token_for(slot: usize, generation: usize) -> usize {
        (generation << SLOT_BITS) | (slot + 1)
    }

    fn parts(token: usize) -> (usize, usize) {
        ((token & SLOT_MASK) - 1, token >> SLOT_BITS)
    }

    fn insert(&mut self, conn: Conn) -> usize {
        let slot = self.free.pop().unwrap_or_else(|| {
            // Generations start at 1 so no token is ever LISTENER_TOKEN.
            self.slots.push((1, None));
            self.slots.len() - 1
        });
        assert!(slot < SLOT_MASK, "connection slab exhausted");
        let generation = self.slots[slot].0;
        self.slots[slot].1 = Some(conn);
        self.live += 1;
        Self::token_for(slot, generation)
    }

    fn get_mut(&mut self, token: usize) -> Option<&mut Conn> {
        let (slot, generation) = Self::parts(token);
        match self.slots.get_mut(slot) {
            Some((g, Some(conn))) if *g == generation => Some(conn),
            _ => None,
        }
    }

    fn remove(&mut self, token: usize) -> Option<Conn> {
        let (slot, generation) = Self::parts(token);
        match self.slots.get_mut(slot) {
            Some((g, c @ Some(_))) if *g == generation => {
                // Bump the generation (masked so reuse stays encodable on
                // 32-bit targets) and recycle the slot.
                *g = (*g + 1) & (usize::MAX >> SLOT_BITS);
                if *g == 0 {
                    *g = 1;
                }
                self.free.push(slot);
                self.live -= 1;
                c.take()
            }
            _ => None,
        }
    }

    /// Tokens of every live connection (snapshot, for mutate-while-walking
    /// sweeps).
    fn tokens(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, (_, c))| c.is_some())
            .map(|(slot, (g, _))| Self::token_for(slot, *g))
            .collect()
    }

    fn iter(&self) -> impl Iterator<Item = (usize, &Conn)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(slot, (g, c))| c.as_ref().map(|c| (Self::token_for(slot, *g), c)))
    }
}

/// One accepted scrape connection: buffer the request head, answer once,
/// flush, close.
struct HttpConn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    outbox: Vec<u8>,
    out_pos: usize,
    responded: bool,
}

struct Reactor {
    poller: Poller,
    listener: Option<TcpListener>,
    metrics_listener: Option<TcpListener>,
    router: ShardedGraphManager,
    conns: ConnSlab,
    /// Scrape connections, keyed by their (sub-2^20) poller tokens.
    http_conns: HashMap<usize, HttpConn>,
    next_http_token: usize,
    /// Session ids handed to executors (slow-query log attribution).
    next_session: u64,
    /// Executors checked out for connections that no longer exist.
    pending_exec: usize,
    queue: Arc<WorkQueue>,
    completions: Arc<Mutex<Vec<Completion>>>,
    stats: Arc<ServerStats>,
    flights: Arc<FlightTable>,
    hub: Option<Arc<MetricsHub>>,
    active: Arc<AtomicUsize>,
    max_connections: usize,
    /// Admission cap on the worker queue; 0 leaves it unbounded.
    max_queue_depth: usize,
    draining: bool,
    /// Reusable read scratch — allocating (and zeroing) a fresh chunk
    /// buffer per readiness event costs a visible fraction of a request
    /// at six-figure event rates.
    scratch: Vec<u8>,
}

impl Reactor {
    fn run(&mut self, shutdown: &AtomicBool, force: &AtomicBool) {
        let mut events = Events::new();
        let mut last_sweep = Instant::now();
        loop {
            if self.poller.wait(&mut events, Some(SWEEP_INTERVAL)).is_err() {
                // A failing poller leaves no way to serve anything.
                break;
            }
            for event in events.iter() {
                let token = event.token().0;
                if token == LISTENER_TOKEN {
                    self.accept_ready();
                    continue;
                }
                if token == METRICS_LISTENER_TOKEN {
                    self.accept_metrics_ready();
                    continue;
                }
                if self.http_conns.contains_key(&token) {
                    self.http_event(
                        token,
                        event.is_readable(),
                        event.is_writable(),
                        event.is_hangup() || event.is_error(),
                    );
                    continue;
                }
                if event.is_readable() {
                    self.conn_readable(token);
                }
                if event.is_writable() {
                    self.conn_writable(token);
                }
                if event.is_hangup() || event.is_error() {
                    // With reads masked (backpressure) a hangup/error-only
                    // event is consumed by neither handler above, and
                    // level-triggered readiness would re-report it every
                    // wait. The peer is gone either way: close.
                    let unconsumed = self
                        .conns
                        .get_mut(token)
                        .is_some_and(|c| !c.interest.is_readable());
                    if unconsumed {
                        self.close(token);
                    }
                }
            }
            self.drain_completions(shutdown);
            if shutdown.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            if force.load(Ordering::SeqCst) {
                self.force_close_all();
            }
            if last_sweep.elapsed() >= SWEEP_INTERVAL {
                self.sweep_idle();
                last_sweep = Instant::now();
            }
            if self.draining
                && self.conns.is_empty()
                && (self.pending_exec == 0 || force.load(Ordering::SeqCst))
            {
                break;
            }
        }
    }

    fn publish_active(&self) {
        let n = self.conns.len() + self.pending_exec;
        self.active.store(n, Ordering::SeqCst);
        self.stats
            .live_connections
            .store(self.conns.len() as u64, Ordering::Relaxed);
    }

    // --- accept ----------------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // transient (per-connection) accept error
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        if self.draining {
            return; // dropped: the listener is about to go away anyway
        }
        if self.conns.len() >= self.max_connections {
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            refuse(stream);
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let _ = stream.set_nodelay(true);
        let session_id = self.next_session;
        self.next_session += 1;
        let mut executor = Executor::for_router(self.router.clone())
            .with_flights(Arc::clone(&self.flights))
            .with_server_stats(Arc::clone(&self.stats))
            .with_session_id(session_id);
        if let Some(hub) = &self.hub {
            executor = executor.with_metrics(Arc::clone(hub));
        }
        let fd = stream.as_raw_fd();
        let token = self.conns.insert(Conn {
            stream,
            read_buf: Vec::new(),
            outbox: Vec::new(),
            out_pos: 0,
            executor: Some(executor),
            closing: false,
            peer_eof: false,
            interest: Interest::READABLE,
            last_activity: Instant::now(),
            accepted_at: self.hub.is_some().then(Instant::now),
            outbox_since: None,
        });
        if self
            .poller
            .register(fd, Token(token), Interest::READABLE)
            .is_err()
        {
            let conn = self.conns.remove(token).expect("just inserted");
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            refuse(conn.stream);
            return;
        }
        self.stats.accepted.fetch_add(1, Ordering::Relaxed);
        self.publish_active();
    }

    // --- per-connection I/O ----------------------------------------------

    fn conn_readable(&mut self, token: usize) {
        let mut failed = false;
        {
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            if !conn.interest.is_readable() {
                // Stale event for a connection that since masked its
                // reads; the next executor return unmasks and reads.
                return;
            }
            let chunk = &mut self.scratch[..];
            loop {
                match conn.stream.read(chunk) {
                    Ok(0) => {
                        conn.peer_eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.read_buf.extend_from_slice(&chunk[..n]);
                        if (conn.busy() || conn.output_backlogged())
                            && conn.read_buf.len() >= MAX_LINE_BYTES
                        {
                            break; // backpressure: stop pulling input
                        }
                        if n < chunk.len() {
                            // Short read: the socket is almost certainly
                            // drained. Skip the would-be EAGAIN round trip;
                            // level-triggered readiness re-reports any
                            // bytes that did arrive in the meantime.
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
        }
        if failed {
            self.close(token);
            return;
        }
        self.settle(token);
    }

    fn conn_writable(&mut self, token: usize) {
        if self.try_write(token) {
            self.settle(token);
        }
    }

    /// Writes as much buffered output as the socket accepts. Returns
    /// `false` when the connection is gone or was closed on a write error.
    fn try_write(&mut self, token: usize) -> bool {
        let mut failed = false;
        {
            let Some(conn) = self.conns.get_mut(token) else {
                return false;
            };
            while conn.out_pos < conn.outbox.len() {
                match conn.stream.write(&conn.outbox[conn.out_pos..]) {
                    Ok(0) => {
                        failed = true;
                        break;
                    }
                    Ok(n) => conn.out_pos += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            if !failed && conn.out_pos == conn.outbox.len() {
                conn.outbox.clear();
                conn.out_pos = 0;
                if let Some(since) = conn.outbox_since.take() {
                    if let Some(hub) = &self.hub {
                        hub.phase_outbox_flush
                            .record(since.elapsed().as_micros() as u64);
                    }
                }
            }
        }
        if failed {
            self.close(token);
            return false;
        }
        true
    }

    /// Parses buffered lines while the session is idle, dispatching at
    /// most one request to the pool (the executor checkout serializes the
    /// session; the rest stay buffered). Stops — leaving lines buffered —
    /// once the outbox is over its high-water mark; [`Reactor::settle`]
    /// resumes parsing after `try_write` drains the backlog.
    fn process_lines(&mut self, token: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            if conn.busy() || conn.closing || conn.output_backlogged() {
                return;
            }
            match take_line(&mut conn.read_buf, conn.peer_eof) {
                NextLine::Line(line) => {
                    let request = line.trim();
                    if request.is_empty() {
                        continue;
                    }
                    conn.last_activity = Instant::now();
                    if let Some(accepted) = conn.accepted_at.take() {
                        if let Some(hub) = &self.hub {
                            hub.phase_accept_to_parse
                                .record(accepted.elapsed().as_micros() as u64);
                        }
                    }
                    if request.eq_ignore_ascii_case("QUIT") {
                        // Handled outside the language; the goodbye honors
                        // the session's current encoding.
                        let proto = conn
                            .executor
                            .as_ref()
                            .expect("idle conn has executor")
                            .protocol();
                        let bye = Response::Bye.to_frame(proto);
                        conn.buffer_output(&bye);
                        conn.closing = true;
                        return;
                    }
                    // Cache-resident hot points are answered right here in
                    // the reactor — no executor checkout, no worker-pool
                    // round trip. Anything that might render or block
                    // takes the pool.
                    let fast = conn
                        .executor
                        .as_mut()
                        .expect("idle conn has executor")
                        .try_execute_hot(request);
                    if let Some(reply) = fast {
                        let bytes = reply.as_ref();
                        let mut written = 0;
                        if !conn.has_output() {
                            // Write straight from the shared reply bytes;
                            // only the tail the socket refuses is copied
                            // into the outbox. Errors are left for the
                            // settle/write path to observe and close on.
                            loop {
                                match conn.stream.write(&bytes[written..]) {
                                    Ok(0) => break,
                                    Ok(n) => {
                                        written += n;
                                        if written == bytes.len() {
                                            break;
                                        }
                                    }
                                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                                    Err(_) => break,
                                }
                            }
                        }
                        if written < bytes.len() {
                            conn.buffer_output(&bytes[written..]);
                        }
                        continue;
                    }
                    // Admission control: past the queue cap, shed the
                    // request instead of queueing it. The refusal costs no
                    // worker and no queue slot, the connection survives,
                    // and the client may retry — bounded queues keep
                    // queue-wait (and thus tail latency) bounded under
                    // overload instead of letting every request slow down.
                    if self.max_queue_depth > 0
                        && self.stats.queue_depth.load(Ordering::Relaxed) as usize
                            >= self.max_queue_depth
                    {
                        if let Some(hub) = &self.hub {
                            hub.requests_shed.inc();
                        }
                        let proto = conn
                            .executor
                            .as_ref()
                            .expect("idle conn has executor")
                            .protocol();
                        conn.buffer_output(&frame_error("overloaded: worker queue is full", proto));
                        continue;
                    }
                    let executor = conn.executor.take().expect("idle conn has executor");
                    let line = request.to_string();
                    self.stats.queue_depth.fetch_add(1, Ordering::Relaxed);
                    self.queue.push(Work {
                        token,
                        line,
                        executor,
                        enqueued_at: Instant::now(),
                    });
                }
                NextLine::TooLong => {
                    let proto = conn
                        .executor
                        .as_ref()
                        .expect("idle conn has executor")
                        .protocol();
                    conn.buffer_output(&frame_error("request line too long", proto));
                    conn.closing = true;
                    return;
                }
                NextLine::NeedMore => {
                    if conn.peer_eof {
                        // No further requests will ever arrive.
                        conn.closing = true;
                    }
                    return;
                }
            }
        }
    }

    /// Flushes, parses, closes a finished connection, and refreshes
    /// poller interest — the epilogue of every state change. Writing
    /// *before* parsing matters: draining the outbox may drop the backlog
    /// below the high-water mark, which is what lets a backpressured
    /// connection resume parsing its buffered lines (the second flush
    /// pushes out whatever the fast path just produced).
    fn settle(&mut self, token: usize) {
        if !self.try_write(token) {
            return; // gone, or closed on a write error
        }
        self.process_lines(token);
        if !self.try_write(token) {
            return;
        }
        let done = {
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            // `closing` finishes once the reply is flushed and no request
            // is in flight; an EOFed idle connection with nothing left to
            // say is likewise done.
            (conn.closing || conn.peer_eof) && !conn.busy() && !conn.has_output()
        };
        if done {
            self.close(token);
            return;
        }
        self.update_interest(token);
    }

    /// Syncs the poller registration with the connection's needs.
    /// [`Interest::NONE`] deregisters the fd entirely — with level-
    /// triggered readiness that is the only way to actually silence it.
    fn update_interest(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        let desired = conn.desired_interest();
        if desired == conn.interest {
            return;
        }
        let fd = conn.stream.as_raw_fd();
        let result = if desired == Interest::NONE {
            self.poller.deregister(fd)
        } else if conn.interest == Interest::NONE {
            self.poller.register(fd, Token(token), desired)
        } else {
            self.poller.reregister(fd, Token(token), desired)
        };
        if result.is_ok() {
            conn.interest = desired;
        }
    }

    /// Removes a connection. If its executor is checked out, the token is
    /// remembered so the eventual completion drops the executor (and its
    /// pool overlays).
    fn close(&mut self, token: usize) {
        if let Some(conn) = self.conns.remove(token) {
            if conn.interest != Interest::NONE {
                let _ = self.poller.deregister(conn.stream.as_raw_fd());
            }
            if conn.executor.is_none() {
                self.pending_exec += 1;
            }
            // conn (stream + executor, if home) drops here.
        }
        self.publish_active();
    }

    // --- completions ------------------------------------------------------

    fn drain_completions(&mut self, shutdown: &AtomicBool) {
        let done: Vec<Completion> = {
            let mut list = self
                .completions
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *list)
        };
        for completion in done {
            let token = completion.token;
            let installed = match self.conns.get_mut(token) {
                Some(conn) => {
                    conn.buffer_output(completion.reply.as_ref());
                    conn.executor = Some(completion.executor);
                    if shutdown.load(Ordering::SeqCst) {
                        // Draining: the in-flight request got its
                        // response; close once it is flushed.
                        conn.closing = true;
                    }
                    true
                }
                None => {
                    // The connection died while its request ran; dropping
                    // the executor here releases its overlays.
                    self.pending_exec = self.pending_exec.saturating_sub(1);
                    self.publish_active();
                    false
                }
            };
            if installed {
                // settle parses any buffered lines; during a drain the
                // `closing` flag set above keeps it from dispatching more.
                self.settle(token);
            }
        }
    }

    // --- drain and sweep --------------------------------------------------

    fn begin_drain(&mut self) {
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
        // Scrapes are best-effort: close them outright rather than have a
        // slow scraper extend the drain.
        if let Some(listener) = self.metrics_listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
        for token in self.http_conns.keys().copied().collect::<Vec<_>>() {
            self.close_http(token);
        }
        let tokens: Vec<usize> = self.conns.tokens();
        for token in tokens {
            let close_now = {
                let Some(conn) = self.conns.get_mut(token) else {
                    continue;
                };
                // In-flight or unflushed connections finish their reply
                // first (the completion/write paths close them); idle
                // sessions observe EOF immediately.
                conn.closing = true;
                !conn.busy() && !conn.has_output()
            };
            if close_now {
                self.close(token);
            } else {
                self.settle(token);
            }
        }
    }

    fn force_close_all(&mut self) {
        let tokens: Vec<usize> = self.conns.tokens();
        for token in tokens {
            self.close(token);
        }
    }

    fn sweep_idle(&mut self) {
        let doomed: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.busy() && c.last_activity.elapsed() >= IDLE_TIMEOUT)
            .map(|(t, _)| t)
            .collect();
        for token in doomed {
            self.close(token);
        }
    }

    // --- metrics scrape endpoint ------------------------------------------

    fn accept_metrics_ready(&mut self) {
        loop {
            let Some(listener) = self.metrics_listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.draining || stream.set_nonblocking(true).is_err() {
                        continue; // dropped; scrapes are best-effort
                    }
                    let Some(token) = self.alloc_http_token() else {
                        continue;
                    };
                    if self
                        .poller
                        .register(stream.as_raw_fd(), Token(token), Interest::READABLE)
                        .is_ok()
                    {
                        self.http_conns.insert(
                            token,
                            HttpConn {
                                stream,
                                read_buf: Vec::new(),
                                outbox: Vec::new(),
                                out_pos: 0,
                                responded: false,
                            },
                        );
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Next free token in `FIRST_HTTP_TOKEN..2^SLOT_BITS` — the range histql
    /// connection tokens (generation ≥ 1 in the high bits) can never use.
    fn alloc_http_token(&mut self) -> Option<usize> {
        for _ in FIRST_HTTP_TOKEN..SLOT_MASK {
            let token = self.next_http_token;
            self.next_http_token += 1;
            if self.next_http_token > SLOT_MASK {
                self.next_http_token = FIRST_HTTP_TOKEN;
            }
            if !self.http_conns.contains_key(&token) {
                return Some(token);
            }
        }
        None
    }

    fn http_event(&mut self, token: usize, readable: bool, writable: bool, hangup: bool) {
        let mut gone = false;
        let mut respond = false;
        {
            let scratch = &mut self.scratch[..];
            let Some(conn) = self.http_conns.get_mut(&token) else {
                return;
            };
            if readable && !conn.responded {
                loop {
                    match conn.stream.read(scratch) {
                        Ok(0) => {
                            gone = true;
                            break;
                        }
                        Ok(n) => {
                            conn.read_buf.extend_from_slice(&scratch[..n]);
                            if conn.read_buf.len() > http::MAX_HEAD_BYTES {
                                gone = true;
                                break;
                            }
                            if n < scratch.len() {
                                break;
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            gone = true;
                            break;
                        }
                    }
                }
            }
            if !gone && !conn.responded && http::head_complete(&conn.read_buf) {
                respond = true;
            }
            if hangup && !conn.responded {
                gone = true;
            }
        }
        if gone {
            self.close_http(token);
            return;
        }
        if respond {
            // Assemble the catalog outside the connection borrow; the
            // report pulls from the router, caches, and serving counters.
            let body = render_prometheus(&metrics_report(
                self.hub.as_deref(),
                &self.router,
                Some(&self.flights),
                Some(&self.stats),
            ));
            if let Some(conn) = self.http_conns.get_mut(&token) {
                conn.outbox = http::respond(&conn.read_buf, || body);
                conn.responded = true;
            }
        }
        let mut failed = false;
        let mut done = false;
        let mut needs_write_interest = false;
        if let Some(conn) = self.http_conns.get_mut(&token) {
            if conn.responded && (respond || writable) {
                while conn.out_pos < conn.outbox.len() {
                    match conn.stream.write(&conn.outbox[conn.out_pos..]) {
                        Ok(0) => {
                            failed = true;
                            break;
                        }
                        Ok(n) => conn.out_pos += n,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            failed = true;
                            break;
                        }
                    }
                }
            }
            done = conn.responded && conn.out_pos == conn.outbox.len();
            // A freshly answered connection that could not flush in one go
            // switches from read to write interest.
            needs_write_interest = respond && !failed && !done;
        }
        if failed || done {
            self.close_http(token);
            return;
        }
        if needs_write_interest {
            if let Some(conn) = self.http_conns.get_mut(&token) {
                let _ = self.poller.reregister(
                    conn.stream.as_raw_fd(),
                    Token(token),
                    Interest::WRITABLE,
                );
            }
        }
    }

    fn close_http(&mut self, token: usize) {
        if let Some(conn) = self.http_conns.remove(&token) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
        }
    }
}

fn refuse(stream: TcpStream) {
    // The socket buffer of a fresh connection always has room for this
    // short refusal; a failed write means the peer is already gone.
    let mut stream = stream;
    let _ = stream.write_all(b"ERR server busy\nEND\n");
}
