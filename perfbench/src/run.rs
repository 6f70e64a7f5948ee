//! Cluster boot, the closed client loop and the correctness checks.

use crate::layers::WalCounters;
use crate::layers::{self, Kind, Meta, Span, TimedEndpoint, TimedKv, TimedService, TimedWal};
use crate::plan::{plan, ClientPlan, Op, Workload, CLIENTS};
use loco_client::{
    DmsEndpoint, FmsEndpoint, LocoClient, LocoConfig, ObsWiring, OstEndpoint, Transport,
    TransportCluster,
};
use loco_dms::DirServer;
use loco_fms::{FileServer, FmsMode};
use loco_kv::{BTreeDb, DurableStore, HashDb, KvConfig, KvStore, SyncPolicy};
use loco_net::{class, serve_tcp, EndpointMetrics, ServeOptions, ServerId};
use loco_net::{TcpEndpoint, TcpServerGuard};
use loco_obs::{
    FlightRecorder, MetricValue, MetricsRegistry, SampleMode, Tracer, Watchdog, WatchdogConfig,
};
use loco_ostore::ObjectStore;
use loco_types::dirent::DirentKind;
use loco_types::meta::FileStat;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Identity every benchmark client runs as.
const UID: u32 = 1000;
/// Role directories of a durable cluster (one DMS, two FMS, one OST).
const ROLE_DIRS: [&str; 4] = ["dms0", "fms0", "fms1", "ost0"];
/// How often `TransportCluster` runs `Service::maintain` on a durable
/// cluster; the traced cluster uses the same beat.
const MAINTAIN_EVERY: Duration = Duration::from_millis(200);

/// A cluster under test: wired as users get it, or from the same public
/// parts with timing wrappers at the layer boundaries.
pub enum Cluster {
    /// `TransportCluster::new(.., Transport::Tcp)`.
    Plain(TransportCluster),
    /// The traced topology.
    Traced(Traced),
}

/// The traced topology: one DMS, two FMS and one OST over localhost TCP,
/// each role behind its WAL, with [`crate::layers`] wrappers.
pub struct Traced {
    cfg: LocoConfig,
    dms: Vec<DmsEndpoint>,
    fms: Vec<FmsEndpoint>,
    ost: Vec<OstEndpoint>,
    obs: ObsWiring,
    /// Client-side endpoint metrics (retry counts). Kept apart from the
    /// server registry so request counters are not counted twice.
    pub client_net: Arc<MetricsRegistry>,
    /// WAL counters, one per role store.
    pub wal: Vec<Arc<WalCounters>>,
    /// Sleep injected into every FMS handler, in microseconds.
    pub fms_delay_us: Arc<AtomicU64>,
    // Declared last: servers stop after the client endpoints are gone.
    _guards: Vec<TcpServerGuard>,
}

impl Cluster {
    /// Boot a cluster whose roles persist under `root`.
    pub fn boot(traced: bool, root: &Path, policy: SyncPolicy) -> Self {
        if traced {
            Cluster::Traced(Traced::boot(root, policy))
        } else {
            let cfg = LocoConfig::with_servers(2).durable(root, policy);
            Cluster::Plain(TransportCluster::new(cfg, Transport::Tcp))
        }
    }

    /// A new client (uid/gid 1000).
    pub fn client(&self) -> LocoClient {
        match self {
            Cluster::Plain(c) => c.client_as(UID, UID),
            Cluster::Traced(t) => LocoClient::with_endpoints(
                t.cfg.clone(),
                t.dms.clone(),
                t.fms.clone(),
                t.ost.clone(),
                ObsWiring {
                    registry: t.obs.registry.clone(),
                    tracer: t.obs.tracer.clone(),
                    flight: t.obs.flight.clone(),
                    watchdog: t.obs.watchdog.clone(),
                },
                UID,
                UID,
            ),
        }
    }

    /// The registry servers and clients record into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        match self {
            Cluster::Plain(c) => &c.registry,
            Cluster::Traced(t) => &t.obs.registry,
        }
    }
}

impl Traced {
    fn boot(root: &Path, policy: SyncPolicy) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let client_net = Arc::new(MetricsRegistry::new());
        let fms_delay_us = Arc::new(AtomicU64::new(0));
        let no_delay = Arc::new(AtomicU64::new(0));
        let mut wal = Vec::new();
        let mut guards = Vec::new();
        let mut store = |role: &str, i: u16, id: ServerId, inner: Box<dyn KvStore>| {
            let durable =
                DurableStore::open(root.join(format!("{role}{i}")), TimedKv::new(inner, id))
                    .unwrap_or_else(|e| panic!("open durable {role}{i} store: {e}"))
                    .with_sync_policy(policy);
            let counters = Arc::new(WalCounters::default());
            wal.push(Arc::clone(&counters));
            Box::new(TimedWal::new(durable, id, counters)) as Box<dyn KvStore>
        };
        let opts = |id: ServerId| ServeOptions {
            metrics: Some(EndpointMetrics::register(&registry, id)),
            registry: Some(Arc::clone(&registry)),
            maintain_every: Some(MAINTAIN_EVERY),
            ..Default::default()
        };
        let listener = || TcpListener::bind("127.0.0.1:0").expect("bind localhost");

        let id = ServerId::new(class::DMS, 0);
        let db = store("dms", 0, id, Box::new(BTreeDb::new(KvConfig::default())));
        let svc = TimedService::new(DirServer::with_store(db, 0), id, Arc::clone(&no_delay));
        let guard = serve_tcp(id, svc, listener(), opts(id)).expect("serve dms");
        let ep = TcpEndpoint::<DirServer>::connect(id, &guard.addr().to_string())
            .with_metrics(EndpointMetrics::register(&client_net, id));
        let dms = vec![Arc::new(TimedEndpoint::new(ep)) as DmsEndpoint];
        guards.push(guard);

        let mut fms = Vec::new();
        for i in 0..2u16 {
            let id = ServerId::new(class::FMS, i);
            let cfg = FileServer::tune_cfg(FmsMode::Decoupled, KvConfig::default());
            let db = store("fms", i, id, Box::new(HashDb::new(cfg)));
            let server = FileServer::with_store(db, i + 1, FmsMode::Decoupled);
            let svc = TimedService::new(server, id, Arc::clone(&fms_delay_us));
            let guard = serve_tcp(id, svc, listener(), opts(id)).expect("serve fms");
            let ep = TcpEndpoint::<FileServer>::connect(id, &guard.addr().to_string())
                .with_metrics(EndpointMetrics::register(&client_net, id));
            fms.push(Arc::new(TimedEndpoint::new(ep)) as FmsEndpoint);
            guards.push(guard);
        }

        let id = ServerId::new(class::OST, 0);
        let db = store("ost", 0, id, Box::new(HashDb::new(KvConfig::default())));
        let svc = TimedService::new(ObjectStore::with_store(db), id, no_delay);
        let guard = serve_tcp(id, svc, listener(), opts(id)).expect("serve ost");
        let ep = TcpEndpoint::<ObjectStore>::connect(id, &guard.addr().to_string())
            .with_metrics(EndpointMetrics::register(&client_net, id));
        let ost = vec![Arc::new(TimedEndpoint::new(ep)) as OstEndpoint];
        guards.push(guard);

        Traced {
            cfg: LocoConfig::with_servers(2).durable(root, policy),
            dms,
            fms,
            ost,
            obs: ObsWiring {
                registry,
                tracer: Arc::new(Tracer::new(SampleMode::Off)),
                flight: Arc::new(FlightRecorder::new(loco_obs::recorder::DEFAULT_K)),
                watchdog: Arc::new(Watchdog::new(WatchdogConfig::default())),
            },
            client_net,
            wal,
            fms_delay_us,
            _guards: guards,
        }
    }

    /// Sum of the WAL counters over every role: (records, fsyncs,
    /// checkpoints).
    pub fn wal_totals(&self) -> [u64; 3] {
        self.wal.iter().fold([0; 3], |[r, f, c], w| {
            [
                r + w.next_seq.load(Ordering::Relaxed).saturating_sub(1),
                f + w.fsyncs.load(Ordering::Relaxed),
                c + w.checkpoints.load(Ordering::Relaxed),
            ]
        })
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Whether a `stat_file` result is what populate created.
pub fn stat_ok(st: &FileStat) -> bool {
    st.access.mode & 0o7777 == 0o644 && st.access.uid == UID && st.access.gid == UID
}

/// Run one step; `false` when it failed or returned a wrong result.
fn exec(c: &mut LocoClient, op: &Op) -> bool {
    match op {
        Op::Stat(p) => c.stat_file(p).is_ok_and(|st| stat_ok(&st)),
        Op::Mkdir(p) => c.mkdir(p, 0o755).is_ok(),
        Op::Create(p) => c.create(p, 0o644).is_ok(),
        Op::Rename(a, b) => c.rename_file(a, b).is_ok(),
        Op::StatDir(p) => c.stat_dir(p).is_ok_and(|d| d.mode & 0o7777 == 0o755),
        Op::Unlink(p) => c.unlink(p).is_ok(),
        Op::Rmdir(p) => c.rmdir(p).is_ok(),
        Op::GcFlush => {
            c.gc_flush();
            c.gc_pending() == 0
        }
    }
}

/// Build every client's tree. Returns the number of failed steps.
///
/// The directories are made one client after the other: the DMS hands
/// out directory uuids in arrival order and a file's FMS is chosen from
/// its directory's uuid, so a fixed mkdir order makes the split of files
/// (and of each FMS's uuid-watermark WAL records) a function of the
/// seed alone, the same in every pass.
fn populate(clients: &mut [LocoClient], plans: &[ClientPlan]) -> usize {
    let mut failed = 0;
    for (c, p) in clients.iter_mut().zip(plans) {
        failed += usize::from(c.mkdir(&p.root, 0o755).is_err());
        for d in &p.dirs {
            failed += usize::from(c.mkdir(d, 0o755).is_err());
        }
    }
    failed
        + each_client(clients, plans, |c, p| {
            p.files().filter(|f| c.create(f, 0o644).is_err()).count()
        })
}

/// The untimed warm-up pass: fills every client's d-inode cache.
fn warm(clients: &mut [LocoClient], plans: &[ClientPlan]) -> usize {
    each_client(clients, plans, |c, p| {
        p.warm
            .iter()
            .filter(|w| !c.stat_file(w).is_ok_and(|st| stat_ok(&st)))
            .count()
    })
}

/// Run `f` for every client on its own thread; sums the failures it
/// returns.
fn each_client(
    clients: &mut [LocoClient],
    plans: &[ClientPlan],
    f: impl Fn(&mut LocoClient, &ClientPlan) -> usize + Sync,
) -> usize {
    std::thread::scope(|s| {
        let f = &f;
        let workers: Vec<_> = clients
            .iter_mut()
            .zip(plans)
            .map(|(c, p)| s.spawn(move || f(c, p)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .sum()
    })
}

/// The timed closed loop.
pub struct Drive {
    /// Per round: barrier release to the last client's finish.
    pub rounds: Vec<Duration>,
    /// Per client, per round: wall nanoseconds of each timed op, in
    /// plan order.
    pub lat: Vec<Vec<Vec<u64>>>,
    /// Timed ops that failed or returned a wrong result.
    pub failed: usize,
}

fn drive(clients: &mut [LocoClient], plans: &[ClientPlan], traced: bool) -> Drive {
    let rounds = plans[0].rounds.len();
    let barrier = Barrier::new(clients.len() + 1);
    std::thread::scope(|s| {
        let barrier = &barrier;
        let workers: Vec<_> = clients
            .iter_mut()
            .zip(plans)
            .map(|(c, p)| {
                s.spawn(move || {
                    let mut lat = Vec::with_capacity(rounds);
                    let mut ends = Vec::with_capacity(rounds);
                    let mut failed = 0usize;
                    for r in &p.rounds {
                        let mut round = Vec::with_capacity(r.len());
                        barrier.wait();
                        for op in &p.ops[r.clone()] {
                            if let Op::GcFlush = op {
                                failed += usize::from(!exec(c, op));
                                continue;
                            }
                            let span = traced.then(layers::open);
                            let t = Instant::now();
                            let ok = exec(c, op);
                            round.push(t.elapsed().as_nanos() as u64);
                            if let Some(o) = span {
                                let meta = Meta {
                                    kind: Kind::Op,
                                    class: 0,
                                    index: 0,
                                    label: op.label(),
                                    arg: 0,
                                    write: op.is_write(),
                                };
                                layers::close(o, meta);
                            }
                            failed += usize::from(!ok);
                        }
                        ends.push(Instant::now());
                        lat.push(round);
                    }
                    (lat, failed, ends)
                })
            })
            .collect();
        let mut starts = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            barrier.wait();
            starts.push(Instant::now());
        }
        let mut out = Drive {
            rounds: vec![Duration::ZERO; rounds],
            lat: Vec::new(),
            failed: 0,
        };
        for w in workers {
            let (lat, failed, ends) = w.join().expect("client thread panicked");
            for (r, (end, start)) in ends.iter().zip(&starts).enumerate() {
                out.rounds[r] = out.rounds[r].max(end.duration_since(*start));
            }
            out.lat.push(lat);
            out.failed += failed;
        }
        out
    })
}

/// Check that every populated directory lists exactly its populated
/// files and that each directory's first file stats as created.
fn verify(cluster: &Cluster, plans: &[ClientPlan]) -> Vec<String> {
    let mut c = cluster.client();
    let mut errors = Vec::new();
    for p in plans {
        let mut want = p.file_names.clone();
        want.sort();
        for d in &p.dirs {
            match c.readdir(d) {
                Ok(entries) => {
                    let mut got: Vec<String> = entries
                        .into_iter()
                        .map(|(n, k)| match k {
                            DirentKind::File => n,
                            DirentKind::Dir => format!("{n}/"),
                        })
                        .collect();
                    got.sort();
                    if got != want {
                        errors.push(format!(
                            "readdir {d}: {} entries, want {}",
                            got.len(),
                            want.len()
                        ));
                    }
                }
                Err(e) => errors.push(format!("readdir {d}: {e}")),
            }
            let f0 = format!("{d}/{}", p.file_names[0]);
            if !c.stat_file(&f0).is_ok_and(|st| stat_ok(&st)) {
                errors.push(format!("stat {f0} after the run"));
            }
        }
    }
    errors
}

/// Records ever logged by every role's WAL, read offline from the data
/// directory (the next sequence number a reopened store would assign).
fn wal_records_offline(root: &Path) -> Result<u64, String> {
    let mut total = 0;
    for role in ROLE_DIRS {
        let store = DurableStore::open(root.join(role), BTreeDb::new(KvConfig::default()))
            .map_err(|e| format!("reopen {role} offline: {e}"))?;
        total += store.next_seq() - 1;
    }
    Ok(total)
}

/// (count, sum) of a histogram family across label sets.
pub fn hist_family(reg: &MetricsRegistry, name: &str) -> (u64, u64) {
    reg.snapshot()
        .entries
        .into_iter()
        .filter(|(id, _)| id.name == name)
        .fold((0, 0), |(c, s), (_, v)| match v {
            MetricValue::Histogram(h) => (c + h.count, s + h.sum),
            _ => (c, s),
        })
}

/// A counter or gauge family summed across label sets.
pub fn scalar_family(reg: &MetricsRegistry, name: &str) -> u64 {
    reg.snapshot()
        .entries
        .into_iter()
        .filter(|(id, _)| id.name == name)
        .map(|(_, v)| match v {
            MetricValue::Counter(c) => c,
            MetricValue::Gauge(g) => g.max(0) as u64,
            MetricValue::Histogram(_) => 0,
        })
        .sum()
}

/// Requests handled per role (dms, fms, ost), from the server counters.
fn rpcs_by_role(reg: &MetricsRegistry) -> [u64; 3] {
    let mut out = [0; 3];
    for (id, v) in reg.snapshot().entries {
        if id.name != "loco_rpc_requests_total" {
            continue;
        }
        let role = id
            .labels
            .iter()
            .find(|(k, _)| k == "role")
            .map(|(_, r)| r.as_str());
        let slot = match role {
            Some("dms") => 0,
            Some("fms") => 1,
            Some("ost") => 2,
            _ => continue,
        };
        if let MetricValue::Counter(c) = v {
            out[slot] += c;
        }
    }
    out
}

/// What one pass (plain or traced) produced.
pub struct Phase {
    /// The op lists that were run.
    pub plans: Vec<ClientPlan>,
    /// Wall seconds of each set-up (boot + populate + warm).
    pub setup_secs: Vec<f64>,
    /// `VmHWM` in MiB after the first set-up, the timed loop and the
    /// checks.
    pub peak_rss_mb: f64,
    /// The timed loop.
    pub drive: Drive,
    /// Correctness-check failures (populate, post-run, reopen).
    pub check_errors: Vec<String>,
    /// Requests per role (dms, fms, ost) served by the cluster the timed
    /// phase ran on.
    pub rpcs: [u64; 3],
    /// Whole-run WAL records, counted offline after the drain.
    pub wal_records: u64,
    /// Group-commit batches of the timed cluster (`loco_wal_batch_size`).
    pub commit_batches: u64,
    /// WAL fsyncs of the timed cluster (`loco_wal_fsyncs` after the
    /// drain).
    pub wal_fsyncs: u64,
    /// Requests shed at admission by the servers (loco-guard).
    pub shed: u64,
    /// Requests expired by the servers.
    pub expired: u64,
    /// What the traced pass recorded.
    pub trace: Option<TraceData>,
}

/// Spans and counter deltas of the traced pass's timed phase.
pub struct TraceData {
    /// Every span recorded in the timed phase.
    pub spans: Vec<Span>,
    /// d-inode cache (hits, misses) in the timed phase.
    pub cache: (u64, u64),
    /// WAL (records, fsyncs, checkpoints) in the timed phase.
    pub wal: [u64; 3],
    /// Group-commit (batches, records covered) in the timed phase.
    pub batches: (u64, u64),
    /// Client retries over the whole traced pass.
    pub retries: u64,
}

/// Inputs of one pass.
pub struct Params {
    /// Workload.
    pub workload: Workload,
    /// Seed of every op list.
    pub seed: u64,
    /// Timed ops per client.
    pub ops_per_client: usize,
    /// Where role data directories go.
    pub data_root: PathBuf,
}

/// One set-up: boot a cluster under `dir`, populate every client's tree
/// and warm the clients' caches. Returns the cluster, its clients, the
/// wall seconds it took and the number of failed steps.
fn set_up(
    w: Workload,
    plans: &[ClientPlan],
    traced: bool,
    dir: &Path,
) -> (Cluster, Vec<LocoClient>, f64, usize) {
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    let mut cluster = Cluster::boot(traced, dir, SyncPolicy::OsManaged);
    let mut clients: Vec<LocoClient> = (0..CLIENTS).map(|_| cluster.client()).collect();
    let mut failed = populate(&mut clients, plans);
    if w.policy() != SyncPolicy::OsManaged {
        // Populate at the os-managed policy, then reopen the same
        // data directory at the workload's policy: the tree is set-up,
        // not the measured work, and a populate fsynced per create
        // would time the device.
        drop(clients);
        drop(cluster);
        cluster = Cluster::boot(traced, dir, w.policy());
        clients = (0..CLIENTS).map(|_| cluster.client()).collect();
    }
    failed += warm(&mut clients, plans);
    (cluster, clients, t.elapsed().as_secs_f64(), failed)
}

/// Run one pass: a set-up, the timed loop, the post-run checks, a
/// graceful drop and a reopen from the same data directory, then
/// `setups - 1` more set-ups that are only timed. The first set-up runs
/// in a fresh heap, so the peak resident set is read before the extra
/// ones. `fms_delay_us` sleeps inside every FMS handler during the timed
/// phase of a traced pass.
pub fn run_phase(p: &Params, traced: bool, setups: usize, fms_delay_us: u64) -> Phase {
    let w = p.workload;
    let plans: Vec<ClientPlan> = (0..CLIENTS)
        .map(|k| plan(w, k, p.ops_per_client, p.seed))
        .collect();
    let tag = if traced { "traced" } else { "plain" };
    let mut setup_secs = Vec::new();
    let mut check_errors = Vec::new();
    let dir = p.data_root.join(format!("{tag}0"));
    let (cluster, mut clients, secs, failed) = set_up(w, &plans, traced, &dir);
    setup_secs.push(secs);
    if failed > 0 {
        check_errors.push(format!("set-up 0: {failed} populate steps failed"));
    }

    let before = match &cluster {
        Cluster::Traced(t) => {
            drop(layers::take_spans());
            let reg = cluster.registry();
            let cache = (
                scalar_family(reg, "loco_client_cache_hits_total"),
                scalar_family(reg, "loco_client_cache_misses_total"),
            );
            t.fms_delay_us.store(fms_delay_us, Ordering::SeqCst);
            layers::set_recording(true);
            Some((
                cache,
                t.wal_totals(),
                hist_family(reg, "loco_wal_batch_size"),
            ))
        }
        Cluster::Plain(_) => None,
    };
    let drive = drive(&mut clients, &plans, traced);
    let mut trace = None;
    if let (Cluster::Traced(t), Some((cache0, wal0, batch0))) = (&cluster, before) {
        layers::set_recording(false);
        t.fms_delay_us.store(0, Ordering::SeqCst);
        let spans = layers::take_spans();
        let reg = cluster.registry();
        let wal1 = t.wal_totals();
        let batch1 = hist_family(reg, "loco_wal_batch_size");
        trace = Some(TraceData {
            spans,
            cache: (
                scalar_family(reg, "loco_client_cache_hits_total") - cache0.0,
                scalar_family(reg, "loco_client_cache_misses_total") - cache0.1,
            ),
            wal: [wal1[0] - wal0[0], wal1[1] - wal0[1], wal1[2] - wal0[2]],
            batches: (batch1.0 - batch0.0, batch1.1 - batch0.1),
            retries: scalar_family(&t.client_net, "loco_rpc_retries_total"),
        });
    }

    check_errors.extend(verify(&cluster, &plans));
    let registry = Arc::clone(cluster.registry());
    drop(clients);
    // Graceful drain: the servers checkpoint and publish their final
    // WAL gauges into the registry.
    drop(cluster);
    let wal_records = wal_records_offline(&dir).unwrap_or_else(|e| {
        check_errors.push(e);
        0
    });
    let reopened = Cluster::boot(false, &dir, w.policy());
    check_errors.extend(
        verify(&reopened, &plans)
            .into_iter()
            .map(|e| format!("reopen: {e}")),
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    let peak_rss_mb = peak_rss_mb();

    for i in 1..setups {
        let dir = p.data_root.join(format!("{tag}{i}"));
        let (cluster, clients, secs, failed) = set_up(w, &plans, traced, &dir);
        drop(clients);
        drop(cluster);
        let _ = std::fs::remove_dir_all(&dir);
        setup_secs.push(secs);
        if failed > 0 {
            check_errors.push(format!("set-up {i}: {failed} populate steps failed"));
        }
    }

    Phase {
        plans,
        setup_secs,
        peak_rss_mb,
        drive,
        check_errors,
        rpcs: rpcs_by_role(&registry),
        wal_records,
        commit_batches: hist_family(&registry, "loco_wal_batch_size").0,
        wal_fsyncs: scalar_family(&registry, "loco_wal_fsyncs"),
        shed: scalar_family(&registry, "loco_server_shed"),
        expired: scalar_family(&registry, "loco_server_expired"),
        trace,
    }
}

impl Phase {
    /// Timed ops run.
    pub fn ops(&self) -> usize {
        self.plans.iter().map(|p| p.timed_ops).sum()
    }

    /// Mutating RPCs of the timed phase.
    pub fn mutations(&self) -> u64 {
        self.plans
            .iter()
            .flat_map(|p| &p.ops)
            .map(Op::mutating_rpcs)
            .sum()
    }

    /// Timed-phase throughput over all rounds.
    pub fn ops_per_s(&self) -> f64 {
        let wall: Duration = self.drive.rounds.iter().sum();
        self.ops() as f64 / wall.as_secs_f64()
    }

    /// Throughput of each round.
    pub fn round_ops_per_s(&self) -> Vec<f64> {
        (0..self.drive.rounds.len())
            .map(|r| {
                let ops: usize = self.drive.lat.iter().map(|c| c[r].len()).sum();
                ops as f64 / self.drive.rounds[r].as_secs_f64()
            })
            .collect()
    }

    /// Latencies of round `r`, split into (all, reads, writes).
    pub fn latencies(&self, r: usize) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let (mut all, mut reads, mut writes) = (Vec::new(), Vec::new(), Vec::new());
        for (lat, p) in self.drive.lat.iter().zip(&self.plans) {
            let timed = p.ops[p.rounds[r].clone()]
                .iter()
                .filter(|o| !matches!(o, Op::GcFlush));
            for (&ns, op) in lat[r].iter().zip(timed) {
                all.push(ns);
                if op.is_write() {
                    writes.push(ns);
                } else {
                    reads.push(ns);
                }
            }
        }
        (all, reads, writes)
    }
}
