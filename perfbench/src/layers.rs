//! Spans at the layer boundaries of the traced run.
//!
//! The traced cluster is booted from the same public parts as the
//! plain one, with a timing wrapper at four boundaries:
//!
//! * [`TimedEndpoint`] — the client's `Endpoint` (one span per RPC);
//! * [`TimedService`] — the server's `Service` (handler, group-commit
//!   stage, out-of-lock fsync closure, maintenance);
//! * [`TimedWal`] — the `DurableStore` (WAL commit and checkpoint);
//! * [`TimedKv`] — the in-memory `KvStore` inside the WAL (KV time).
//!
//! The client loop adds one span per op. Spans are kept in memory,
//! one buffer per thread, and only while recording is switched on (the
//! timed phase). A span's parent is the innermost span open on the same
//! thread when it started; a server handler span has none and is linked
//! to its client RPC afterwards (see `crate::report`).
//!
//! Every wrapper forwards every trait method, defaults included: a
//! missed `Service::defer_sync` would silently turn group commit off
//! and the traced run would measure a different program.

use loco_kv::{AccessStats, KvStore, PersistenceStats};
use loco_net::{CallCtx, CommitFsync, Endpoint, MaintainReport, RpcError, ServerId, Service};
use loco_net::{ReplStamp, TcpEndpoint};
use loco_sim::time::Nanos;
use loco_types::wire::Wire;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// What a span times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One client filesystem op (recorded by the client loop).
    Op,
    /// One client `try_call`, retries included.
    Rpc,
    /// One server handler run, under the service lock.
    Handle,
    /// One call into the in-memory KV store.
    Kv,
    /// One `txn_commit` on the durable store.
    WalCommit,
    /// One checkpoint (inline in a commit or from maintenance).
    Checkpoint,
    /// The group-commit stage (`commit_flush_begin`, under the lock).
    Stage,
    /// The out-of-lock group-commit fsync closure.
    Fsync,
    /// One `Service::maintain` pass.
    Maintain,
}

/// One recorded span. Times are nanoseconds since the recorder epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Unique id (thread lane in the high bits).
    pub id: u64,
    /// Enclosing span on the same thread (0 = none).
    pub parent: u64,
    /// What was timed.
    pub kind: Kind,
    /// Server role class (`loco_net::class`); 0 for op spans.
    pub class: u8,
    /// Server index.
    pub index: u16,
    /// Op label, RPC label or KV method.
    pub label: &'static str,
    /// Start.
    pub start: u64,
    /// End.
    pub end: u64,
    /// Request fingerprint (Rpc, Handle), records appended (WalCommit)
    /// or records covered (Stage).
    pub arg: u64,
    /// The request or op mutates.
    pub write: bool,
    /// The handler took a group-commit ticket (its reply is parked).
    pub ticket: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

type Lane = Arc<Mutex<Vec<Span>>>;

struct Recorder {
    on: AtomicBool,
    epoch: Instant,
    lanes: Mutex<Vec<Lane>>,
}

fn rec() -> &'static Recorder {
    static REC: OnceLock<Recorder> = OnceLock::new();
    REC.get_or_init(|| Recorder {
        on: AtomicBool::new(false),
        epoch: Instant::now(),
        lanes: Mutex::new(Vec::new()),
    })
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    static LANE: RefCell<Option<(u64, Lane)>> = const { RefCell::new(None) };
    static SEQ: Cell<u64> = const { Cell::new(0) };
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Whether spans are being recorded.
#[inline]
pub fn recording() -> bool {
    rec().on.load(Ordering::Relaxed)
}

/// Switch recording on or off.
pub fn set_recording(on: bool) {
    rec().on.store(on, Ordering::SeqCst);
}

/// Nanoseconds since the recorder epoch.
#[inline]
pub fn now_ns() -> u64 {
    rec().epoch.elapsed().as_nanos() as u64
}

/// Drain every thread's spans.
pub fn take_spans() -> Vec<Span> {
    let lanes = lock(&rec().lanes);
    let mut out = Vec::new();
    for lane in lanes.iter() {
        out.append(&mut lock(lane));
    }
    out
}

/// Write spans as tab-separated lines: id, parent, kind, class, index,
/// label, start ns, end ns, arg, write, ticket.
pub fn write_spans(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "id\tparent\tkind\tclass\tindex\tlabel\tstart\tend\targ\twrite\tticket"
    )?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{:?}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent,
            s.kind,
            s.class,
            s.index,
            s.label,
            s.start,
            s.end,
            s.arg,
            s.write,
            s.ticket
        )?;
    }
    out.flush()
}

/// A span that has started but not ended.
pub struct Open {
    id: u64,
    parent: u64,
    start: u64,
}

fn next_id() -> u64 {
    LANE.with(|l| {
        let mut l = l.borrow_mut();
        let (lane_id, _) = l.get_or_insert_with(|| {
            let lane: Lane = Arc::new(Mutex::new(Vec::new()));
            let mut lanes = lock(&rec().lanes);
            lanes.push(Arc::clone(&lane));
            (lanes.len() as u64, lane)
        });
        let seq = SEQ.with(|s| {
            s.set(s.get() + 1);
            s.get()
        });
        (*lane_id << 40) | seq
    })
}

/// Start a span whose parent is the innermost open span on this thread.
pub fn open() -> Open {
    let parent = STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    open_under(parent)
}

/// Start a span under an explicit parent (a closure run on another
/// thread than the span that created it).
pub fn open_under(parent: u64) -> Open {
    let id = next_id();
    STACK.with(|s| s.borrow_mut().push(id));
    Open {
        id,
        parent,
        start: now_ns(),
    }
}

/// What to record when a span ends.
#[derive(Clone, Copy)]
pub struct Meta {
    /// Kind.
    pub kind: Kind,
    /// Server role class.
    pub class: u8,
    /// Server index.
    pub index: u16,
    /// Label.
    pub label: &'static str,
    /// Kind-specific argument (see [`Span::arg`]).
    pub arg: u64,
    /// Mutating.
    pub write: bool,
}

/// End a span and keep it; returns its id.
pub fn close(o: Open, m: Meta) -> u64 {
    let end = now_ns();
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        if s.last() == Some(&o.id) {
            s.pop();
        }
    });
    let span = Span {
        id: o.id,
        parent: o.parent,
        kind: m.kind,
        class: m.class,
        index: m.index,
        label: m.label,
        start: o.start,
        end,
        arg: m.arg,
        write: m.write,
        ticket: false,
    };
    LANE.with(|l| {
        if let Some((_, lane)) = l.borrow().as_ref() {
            lock(lane).push(span);
        }
    });
    o.id
}

/// Mark this thread's last recorded span as holding a commit ticket.
fn mark_last_ticket() {
    LANE.with(|l| {
        if let Some((_, lane)) = l.borrow().as_ref() {
            if let Some(s) = lock(lane).last_mut() {
                if s.kind == Kind::Handle {
                    s.ticket = true;
                }
            }
        }
    });
}

/// FNV-1a over a request's wire bytes: the fingerprint that tells two
/// concurrent RPCs to the same server apart when linking spans.
fn fingerprint(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Label, fingerprint and mutation flag of a request.
fn describe<S: Service>(req: &S::Req) -> (&'static str, u64, bool)
where
    S::Req: Wire,
{
    let bytes = req.to_wire();
    let write = bytes.first().is_some_and(|&t| S::tag_mutates(t));
    (S::req_label(req), fingerprint(&bytes), write)
}

// ----- client endpoint ------------------------------------------------

/// A TCP endpoint that times every `try_call`.
pub struct TimedEndpoint<S: Service> {
    inner: TcpEndpoint<S>,
    id: ServerId,
}

impl<S: Service> TimedEndpoint<S> {
    /// Wrap `inner`.
    pub fn new(inner: TcpEndpoint<S>) -> Self
    where
        S::Req: Wire,
        S::Resp: Wire,
    {
        let id = Endpoint::id(&inner);
        Self { inner, id }
    }
}

impl<S> Endpoint<S::Req, S::Resp> for TimedEndpoint<S>
where
    S: Service,
    S::Req: Wire,
    S::Resp: Wire,
{
    fn call(&self, ctx: &mut CallCtx, req: S::Req) -> S::Resp {
        self.try_call(ctx, req)
            .unwrap_or_else(|e| panic!("rpc to {:?} failed: {e}", self.id))
    }

    fn id(&self) -> ServerId {
        self.id
    }

    fn is_down(&self) -> bool {
        self.inner.is_down()
    }

    fn try_call(&self, ctx: &mut CallCtx, req: S::Req) -> Result<S::Resp, RpcError> {
        if !recording() {
            return self.inner.try_call(ctx, req);
        }
        let (label, arg, write) = describe::<S>(&req);
        let o = open();
        let r = self.inner.try_call(ctx, req);
        close(
            o,
            Meta {
                kind: Kind::Rpc,
                class: self.id.class,
                index: self.id.index,
                label,
                arg,
                write,
            },
        );
        r
    }
}

// ----- server service -------------------------------------------------

/// A service that times its handler, group-commit stage and fsync, and
/// can sleep inside the handler (the wall-clock self-test).
pub struct TimedService<S> {
    inner: S,
    id: ServerId,
    delay_us: Arc<AtomicU64>,
}

impl<S> TimedService<S> {
    /// Wrap `inner`; the handler sleeps `delay_us` microseconds (read
    /// per request, 0 = no delay).
    pub fn new(inner: S, id: ServerId, delay_us: Arc<AtomicU64>) -> Self {
        Self {
            inner,
            id,
            delay_us,
        }
    }

    fn meta(&self, kind: Kind, label: &'static str, arg: u64, write: bool) -> Meta {
        Meta {
            kind,
            class: self.id.class,
            index: self.id.index,
            label,
            arg,
            write,
        }
    }
}

impl<S: Service> Service for TimedService<S>
where
    S::Req: Wire,
{
    type Req = S::Req;
    type Resp = S::Resp;

    fn handle(&mut self, req: S::Req) -> S::Resp {
        let delay = self.delay_us.load(Ordering::Relaxed);
        if !recording() {
            if delay > 0 {
                std::thread::sleep(Duration::from_micros(delay));
            }
            return self.inner.handle(req);
        }
        let (label, arg, write) = describe::<S>(&req);
        let o = open();
        if delay > 0 {
            std::thread::sleep(Duration::from_micros(delay));
        }
        let resp = self.inner.handle(req);
        close(o, self.meta(Kind::Handle, label, arg, write));
        resp
    }

    fn take_cost(&mut self) -> Nanos {
        self.inner.take_cost()
    }

    fn req_label(req: &S::Req) -> &'static str {
        S::req_label(req)
    }

    fn tag_mutates(tag: u8) -> bool {
        S::tag_mutates(tag)
    }

    fn req_idempotent(req: &S::Req) -> bool {
        S::req_idempotent(req)
    }

    fn span_attrs(&self) -> Vec<(&'static str, u64)> {
        self.inner.span_attrs()
    }

    fn maintain(&mut self, drain: bool) -> Option<MaintainReport> {
        if !recording() {
            return self.inner.maintain(drain);
        }
        let o = open();
        let r = self.inner.maintain(drain);
        close(o, self.meta(Kind::Maintain, "maintain", 0, false));
        r
    }

    fn defer_sync(&mut self, on: bool) -> bool {
        self.inner.defer_sync(on)
    }

    fn take_commit_ticket(&mut self) -> Option<u64> {
        let t = self.inner.take_commit_ticket();
        if t.is_some() && recording() {
            mark_last_ticket();
        }
        t
    }

    fn commit_flush(&mut self) -> u64 {
        self.inner.commit_flush()
    }

    fn commit_flush_begin(&mut self) -> Option<(u64, CommitFsync)> {
        if !recording() {
            return self.inner.commit_flush_begin();
        }
        let o = open();
        let staged = self.inner.commit_flush_begin();
        let (n, fsync) = match staged {
            Some(s) => s,
            None => {
                close(o, self.meta(Kind::Stage, "stage", 0, false));
                return None;
            }
        };
        let stage = close(o, self.meta(Kind::Stage, "stage", n, false));
        let meta = self.meta(Kind::Fsync, "fsync", n, false);
        let timed: CommitFsync = Box::new(move || {
            let o = open_under(stage);
            fsync();
            close(o, meta);
        });
        Some((n, timed))
    }

    fn take_repl_stamp(&mut self) -> Option<ReplStamp> {
        self.inner.take_repl_stamp()
    }

    fn commit_abort(&mut self) -> bool {
        self.inner.commit_abort()
    }
}

// ----- durable store (WAL) --------------------------------------------

/// Live WAL counters of one durable store, readable while it runs.
#[derive(Default)]
pub struct WalCounters {
    /// Next WAL sequence number (records ever logged + 1).
    pub next_seq: AtomicU64,
    /// WAL fsyncs since open.
    pub fsyncs: AtomicU64,
    /// Checkpoints since open.
    pub checkpoints: AtomicU64,
}

/// The `DurableStore` boundary: times commits and checkpoints and
/// publishes the store's WAL counters.
pub struct TimedWal<S> {
    inner: S,
    id: ServerId,
    counters: Arc<WalCounters>,
}

impl<S: KvStore> TimedWal<S> {
    /// Wrap `inner` (a durable store).
    pub fn new(inner: S, id: ServerId, counters: Arc<WalCounters>) -> Self {
        let w = Self {
            inner,
            id,
            counters,
        };
        w.publish();
        w
    }

    fn stats(&self) -> PersistenceStats {
        self.inner.persistence().unwrap_or_default()
    }

    fn publish(&self) {
        let st = self.stats();
        let c = &self.counters;
        c.next_seq
            .store(self.inner.repl_next_seq(), Ordering::Relaxed);
        c.fsyncs.store(st.wal_fsyncs, Ordering::Relaxed);
        c.checkpoints.store(st.checkpoints, Ordering::Relaxed);
    }

    fn meta(&self, kind: Kind, label: &'static str, arg: u64) -> Meta {
        Meta {
            kind,
            class: self.id.class,
            index: self.id.index,
            label,
            arg,
            write: true,
        }
    }
}

impl<S: KvStore> KvStore for TimedWal<S> {
    fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.inner.get(key)
    }

    fn put(&mut self, key: &[u8], value: &[u8]) {
        self.inner.put(key, value);
        self.publish();
    }

    fn delete(&mut self, key: &[u8]) -> bool {
        let hit = self.inner.delete(key);
        self.publish();
        hit
    }

    fn contains(&mut self, key: &[u8]) -> bool {
        self.inner.contains(key)
    }

    fn read_at(&mut self, key: &[u8], off: usize, len: usize) -> Option<Vec<u8>> {
        self.inner.read_at(key, off, len)
    }

    fn write_at(&mut self, key: &[u8], off: usize, data: &[u8]) -> bool {
        let hit = self.inner.write_at(key, off, data);
        self.publish();
        hit
    }

    fn append(&mut self, key: &[u8], data: &[u8]) {
        self.inner.append(key, data);
        self.publish();
    }

    fn scan_prefix(&mut self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.inner.scan_prefix(prefix)
    }

    fn extract_prefix(&mut self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let out = self.inner.extract_prefix(prefix);
        self.publish();
        out
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn ordered(&self) -> bool {
        self.inner.ordered()
    }

    fn take_cost(&mut self) -> Nanos {
        self.inner.take_cost()
    }

    fn stats(&self) -> AccessStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn txn_begin(&mut self) {
        self.inner.txn_begin();
    }

    fn txn_commit(&mut self) {
        if !recording() {
            self.inner.txn_commit();
            self.publish();
            return;
        }
        let before = self.stats();
        let o = open();
        self.inner.txn_commit();
        let after = self.stats();
        // Records reach the log at commit; a checkpoint inside the
        // commit rotates the log and resets the count.
        let (kind, records) = if after.checkpoints > before.checkpoints {
            (Kind::Checkpoint, 0)
        } else {
            (Kind::WalCommit, after.wal_records - before.wal_records)
        };
        close(o, self.meta(kind, "txn_commit", records));
        self.publish();
    }

    fn persist_checkpoint(&mut self) -> std::io::Result<bool> {
        let o = recording().then(open);
        let r = self.inner.persist_checkpoint();
        if let Some(o) = o {
            close(o, self.meta(Kind::Checkpoint, "checkpoint", 0));
        }
        self.publish();
        r
    }

    fn persist_sync(&mut self) -> std::io::Result<()> {
        let r = self.inner.persist_sync();
        self.publish();
        r
    }

    fn persist_defer_sync(&mut self, on: bool) -> bool {
        let r = self.inner.persist_defer_sync(on);
        self.publish();
        r
    }

    fn persist_take_ticket(&mut self) -> Option<u64> {
        self.inner.persist_take_ticket()
    }

    fn persist_commit_flush(&mut self) -> u64 {
        let n = self.inner.persist_commit_flush();
        self.publish();
        n
    }

    fn persist_commit_flush_begin(&mut self) -> Option<(u64, Box<dyn FnOnce() + Send>)> {
        let r = self.inner.persist_commit_flush_begin();
        self.publish();
        r
    }

    fn persistence(&self) -> Option<PersistenceStats> {
        self.inner.persistence()
    }

    fn repl_set_tap(&mut self, tap: loco_kv::durable::CommitTap) -> bool {
        self.inner.repl_set_tap(tap)
    }

    fn repl_next_seq(&self) -> u64 {
        self.inner.repl_next_seq()
    }

    fn repl_apply_group(&mut self, group: &[u8]) -> Result<u64, String> {
        let r = self.inner.repl_apply_group(group);
        self.publish();
        r
    }

    fn repl_snapshot_image(&mut self) -> Option<(u64, Vec<u8>)> {
        self.inner.repl_snapshot_image()
    }

    fn repl_install_snapshot(&mut self, env: &[u8]) -> Result<usize, String> {
        let r = self.inner.repl_install_snapshot(env);
        self.publish();
        r
    }
}

// ----- in-memory KV store ----------------------------------------------

/// The in-memory store inside the WAL: times every data call.
pub struct TimedKv<S> {
    inner: S,
    id: ServerId,
}

impl<S: KvStore> TimedKv<S> {
    /// Wrap `inner`.
    pub fn new(inner: S, id: ServerId) -> Self {
        Self { inner, id }
    }

    #[inline]
    fn timed<R>(&mut self, label: &'static str, f: impl FnOnce(&mut S) -> R) -> R {
        if !recording() {
            return f(&mut self.inner);
        }
        let o = open();
        let r = f(&mut self.inner);
        close(
            o,
            Meta {
                kind: Kind::Kv,
                class: self.id.class,
                index: self.id.index,
                label,
                arg: 0,
                write: false,
            },
        );
        r
    }
}

impl<S: KvStore> KvStore for TimedKv<S> {
    fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.timed("get", |s| s.get(key))
    }

    fn put(&mut self, key: &[u8], value: &[u8]) {
        self.timed("put", |s| s.put(key, value))
    }

    fn delete(&mut self, key: &[u8]) -> bool {
        self.timed("delete", |s| s.delete(key))
    }

    fn contains(&mut self, key: &[u8]) -> bool {
        self.timed("contains", |s| s.contains(key))
    }

    fn read_at(&mut self, key: &[u8], off: usize, len: usize) -> Option<Vec<u8>> {
        self.timed("read_at", |s| s.read_at(key, off, len))
    }

    fn write_at(&mut self, key: &[u8], off: usize, data: &[u8]) -> bool {
        self.timed("write_at", |s| s.write_at(key, off, data))
    }

    fn append(&mut self, key: &[u8], data: &[u8]) {
        self.timed("append", |s| s.append(key, data))
    }

    fn scan_prefix(&mut self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.timed("scan_prefix", |s| s.scan_prefix(prefix))
    }

    fn extract_prefix(&mut self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.timed("extract_prefix", |s| s.extract_prefix(prefix))
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn ordered(&self) -> bool {
        self.inner.ordered()
    }

    fn take_cost(&mut self) -> Nanos {
        self.inner.take_cost()
    }

    fn stats(&self) -> AccessStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn txn_begin(&mut self) {
        self.inner.txn_begin();
    }

    fn txn_commit(&mut self) {
        self.inner.txn_commit();
    }

    fn persist_checkpoint(&mut self) -> std::io::Result<bool> {
        self.inner.persist_checkpoint()
    }

    fn persist_sync(&mut self) -> std::io::Result<()> {
        self.inner.persist_sync()
    }

    fn persist_defer_sync(&mut self, on: bool) -> bool {
        self.inner.persist_defer_sync(on)
    }

    fn persist_take_ticket(&mut self) -> Option<u64> {
        self.inner.persist_take_ticket()
    }

    fn persist_commit_flush(&mut self) -> u64 {
        self.inner.persist_commit_flush()
    }

    fn persist_commit_flush_begin(&mut self) -> Option<(u64, Box<dyn FnOnce() + Send>)> {
        self.inner.persist_commit_flush_begin()
    }

    fn persistence(&self) -> Option<PersistenceStats> {
        self.inner.persistence()
    }

    fn repl_set_tap(&mut self, tap: loco_kv::durable::CommitTap) -> bool {
        self.inner.repl_set_tap(tap)
    }

    fn repl_next_seq(&self) -> u64 {
        self.inner.repl_next_seq()
    }

    fn repl_apply_group(&mut self, group: &[u8]) -> Result<u64, String> {
        self.inner.repl_apply_group(group)
    }

    fn repl_snapshot_image(&mut self) -> Option<(u64, Vec<u8>)> {
        self.inner.repl_snapshot_image()
    }

    fn repl_install_snapshot(&mut self, env: &[u8]) -> Result<usize, String> {
        self.inner.repl_install_snapshot(env)
    }
}
