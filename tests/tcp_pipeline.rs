//! Behaviour of the event-driven server core under concurrency,
//! pipelining and backpressure:
//!
//! * hundreds of concurrent client connections on a small worker pool;
//! * many outstanding pipelined requests on one connection, with
//!   responses free to return out of order;
//! * a slow reader hitting the per-connection write-buffer budget —
//!   the server must stop *reading* (bounded memory) instead of
//!   buffering unboundedly, and resume once the client drains;
//! * frames split across readiness events reassembling correctly;
//! * WAL group commit batching fsyncs across connections while every
//!   acknowledged mutation stays durable;
//! * a dropped client endpoint closing its pooled connections, so they
//!   stop counting against the server's open-connection gauge.

use locofs::dms::{DirServer, DmsRequest, DmsResponse};
use locofs::kv::{BTreeDb, DurableStore, KvConfig, SyncPolicy};
use locofs::net::frame::{encode_frame, read_frame, FrameKind};
use locofs::net::tcp::{serve_tcp, RetryPolicy, ServeOptions, TcpEndpoint};
use locofs::net::{class, CallCtx, Endpoint, EndpointMetrics, RpcRequest, RpcResponse, ServerId};
use locofs::obs::MetricsRegistry;
use locofs::ostore::{ObjectStore, OstoreRequest, OstoreResponse};
use locofs::types::wire::Wire;
use locofs::types::Uuid;
use std::collections::HashSet;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn patient_policy() -> RetryPolicy {
    RetryPolicy {
        attempts: 3,
        backoff: Duration::from_millis(20),
        deadline: Duration::from_secs(10),
        connect_timeout: Duration::from_secs(10),
        reconnect_window: Duration::ZERO,
        retry_budget: 0,
        breaker_threshold: 0,
        breaker_cooldown: Duration::from_millis(100),
    }
}

fn mkdir_local(path: String) -> DmsRequest {
    DmsRequest::MkdirLocal {
        path,
        mode: 0o755,
        uid: 0,
        gid: 0,
        ts: 1,
    }
}

#[test]
fn hundreds_of_clients_share_four_workers() {
    const CLIENTS: usize = 256;
    const OPS: usize = 4;
    let id = ServerId::new(class::DMS, 0);
    let registry = MetricsRegistry::shared();
    let metrics = EndpointMetrics::register(&registry, id);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut guard = serve_tcp(
        id,
        DirServer::with_sid(locofs::dms::DmsBackend::BTree, KvConfig::default(), 0),
        listener,
        ServeOptions {
            metrics: Some(Arc::clone(&metrics)),
            registry: Some(Arc::clone(&registry)),
            workers: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = guard.addr().to_string();

    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            // One endpoint per client thread = dedicated connections,
            // so the server really sees hundreds of sockets at once.
            let ep = TcpEndpoint::<DirServer>::with_policy(id, &addr, patient_policy());
            let mut ctx = CallCtx::new();
            for i in 0..OPS {
                let r = ep
                    .try_call(&mut ctx, mkdir_local(format!("/c{c}-{i}")))
                    .unwrap();
                assert!(matches!(r, DmsResponse::Done(Ok(_))), "mkdir: {r:?}");
            }
            let r = ep
                .try_call(
                    &mut ctx,
                    DmsRequest::GetDir {
                        path: format!("/c{c}-0"),
                    },
                )
                .unwrap();
            assert!(matches!(r, DmsResponse::Dir(Ok(_))), "getdir: {r:?}");
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(metrics.requests(), (CLIENTS * (OPS + 1)) as u64);
    guard.shutdown();

    let labels: [(&str, &str); 2] = [("role", "dms"), ("server", "0")];
    assert_eq!(
        registry.gauge("loco_srv_open_conns", &labels).get(),
        0,
        "every connection must be closed after the drain"
    );
}

#[test]
fn dropped_endpoints_close_their_pooled_connections() {
    const ENDPOINTS: usize = 5;
    let id = ServerId::new(class::DMS, 0);
    let registry = MetricsRegistry::shared();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let _guard = serve_tcp(
        id,
        DirServer::with_sid(locofs::dms::DmsBackend::BTree, KvConfig::default(), 0),
        listener,
        ServeOptions {
            registry: Some(Arc::clone(&registry)),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = _guard.addr().to_string();
    let labels: [(&str, &str); 2] = [("role", "dms"), ("server", "0")];
    let open = || registry.gauge("loco_srv_open_conns", &labels).get();

    for e in 0..ENDPOINTS {
        let ep = TcpEndpoint::<DirServer>::with_policy(id, &addr, patient_policy());
        let mut ctx = CallCtx::new();
        // Two calls: at the default pool width, consecutive request
        // ids land on different slots, so each endpoint dials two
        // connections.
        for i in 0..2 {
            let r = ep
                .try_call(&mut ctx, mkdir_local(format!("/drop{e}-{i}")))
                .unwrap();
            assert!(matches!(r, DmsResponse::Done(Ok(_))), "mkdir: {r:?}");
        }
        assert!(open() > 0, "the calls went over no open connection");
        drop(ep);
    }

    // The server notices each close on its next readiness pass.
    let deadline = Instant::now() + Duration::from_secs(5);
    while open() != 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        open(),
        0,
        "dropped endpoints still hold server connections open"
    );
}

#[test]
fn one_connection_pipelines_many_inflight_requests() {
    const DEPTH: u64 = 64;
    let id = ServerId::new(class::DMS, 0);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let _guard = serve_tcp(
        id,
        DirServer::with_sid(locofs::dms::DmsBackend::BTree, KvConfig::default(), 0),
        listener,
        ServeOptions::default(),
    )
    .unwrap();

    // Raw socket: write 64 request frames back-to-back without reading
    // a single response, then collect all 64 responses (any order).
    let mut stream = TcpStream::connect(_guard.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    for req_id in 1..=DEPTH {
        let payload = RpcRequest {
            budget_ms: 0,
            trace: None,
            body: mkdir_local(format!("/p{req_id}")),
        }
        .to_wire();
        let frame = encode_frame(FrameKind::Request, req_id, &payload);
        stream.write_all(&frame).unwrap();
    }
    let mut seen = HashSet::new();
    for _ in 0..DEPTH {
        let frame = read_frame(&mut stream).unwrap().expect("response frame");
        assert_eq!(frame.kind, FrameKind::Response);
        let resp = RpcResponse::<DmsResponse>::from_wire(&frame.payload).unwrap();
        assert!(matches!(resp.body, DmsResponse::Done(Ok(_))));
        assert!(
            (1..=DEPTH).contains(&frame.req_id) && seen.insert(frame.req_id),
            "unexpected or duplicate req_id {}",
            frame.req_id
        );
    }
    assert_eq!(seen.len(), DEPTH as usize);
}

#[test]
fn slow_reader_is_backpressured_not_buffered_unboundedly() {
    const BLOCK: usize = 1 << 20; // 1 MiB responses
    const READS: u64 = 50;
    let id = ServerId::new(class::OST, 0);
    let registry = MetricsRegistry::shared();
    let metrics = EndpointMetrics::register(&registry, id);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let _guard = serve_tcp(
        id,
        ObjectStore::new(KvConfig::default()),
        listener,
        ServeOptions {
            metrics: Some(Arc::clone(&metrics)),
            registry: Some(Arc::clone(&registry)),
            // Tight reply budget: ~a quarter of one response.
            write_buf_limit: 256 * 1024,
            ..Default::default()
        },
    )
    .unwrap();
    let uuid = Uuid::new(0, 9);

    let mut stream = TcpStream::connect(_guard.addr()).unwrap();
    let seed = RpcRequest {
        budget_ms: 0,
        trace: None,
        body: OstoreRequest::WriteBlock {
            uuid,
            blk: 0,
            data: vec![0xAB; BLOCK],
        },
    }
    .to_wire();
    stream
        .write_all(&encode_frame(FrameKind::Request, 1, &seed))
        .unwrap();
    let frame = read_frame(&mut stream).unwrap().unwrap();
    let resp = RpcResponse::<OstoreResponse>::from_wire(&frame.payload).unwrap();
    assert!(matches!(resp.body, OstoreResponse::Done(Ok(()))));

    // Pipeline 50 reads of the 1 MiB block and then refuse to read the
    // ~50 MiB of responses for a while.
    for req_id in 2..=(1 + READS) {
        let payload = RpcRequest {
            budget_ms: 0,
            trace: None,
            body: OstoreRequest::ReadBlock { uuid, blk: 0 },
        }
        .to_wire();
        stream
            .write_all(&encode_frame(FrameKind::Request, req_id, &payload))
            .unwrap();
    }
    // The server may buffer at most write_buf_limit per connection plus
    // what the kernel socket buffers absorb — far short of all 50.
    let deadline = Instant::now() + Duration::from_millis(600);
    let mut plateau = metrics.requests();
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
        plateau = metrics.requests();
    }
    assert!(
        plateau < 1 + READS,
        "server served all {READS} reads ({plateau} requests) while the \
         client read nothing — write backpressure is not applied"
    );

    // Start draining: the server resumes reading and serves the rest.
    let mut got = 0;
    while got < READS {
        let frame = read_frame(&mut stream).unwrap().expect("response");
        let resp = RpcResponse::<OstoreResponse>::from_wire(&frame.payload).unwrap();
        match resp.body {
            OstoreResponse::Block(Ok(data)) => assert_eq!(data.len(), BLOCK),
            other => panic!("unexpected {other:?}"),
        }
        got += 1;
    }
    assert_eq!(metrics.requests(), 1 + READS);
}

#[test]
fn half_written_frames_reassemble_across_readiness_events() {
    let id = ServerId::new(class::DMS, 0);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let _guard = serve_tcp(
        id,
        DirServer::with_sid(locofs::dms::DmsBackend::BTree, KvConfig::default(), 0),
        listener,
        ServeOptions::default(),
    )
    .unwrap();
    let mut stream = TcpStream::connect(_guard.addr()).unwrap();
    stream.set_nodelay(true).unwrap();

    let payload = RpcRequest {
        budget_ms: 0,
        trace: None,
        body: mkdir_local("/split".into()),
    }
    .to_wire();
    let frame = encode_frame(FrameKind::Request, 42, &payload);
    // Dribble the frame: mid-header, then mid-payload, then the rest.
    // Each pause is long enough for the server to wake up, find the
    // frame incomplete, and go back to waiting.
    let cuts = [7, frame.len() / 2, frame.len()];
    let mut sent = 0;
    for cut in cuts {
        stream.write_all(&frame[sent..cut]).unwrap();
        sent = cut;
        std::thread::sleep(Duration::from_millis(60));
    }
    let reply = read_frame(&mut stream).unwrap().expect("response");
    assert_eq!(reply.req_id, 42);
    let resp = RpcResponse::<DmsResponse>::from_wire(&reply.payload).unwrap();
    assert!(matches!(resp.body, DmsResponse::Done(Ok(_))));

    // A second frame glued right behind a first in one write must also
    // parse as two requests.
    let p1 = RpcRequest {
        budget_ms: 0,
        trace: None,
        body: mkdir_local("/glued-1".into()),
    }
    .to_wire();
    let p2 = RpcRequest {
        budget_ms: 0,
        trace: None,
        body: mkdir_local("/glued-2".into()),
    }
    .to_wire();
    let mut both = encode_frame(FrameKind::Request, 43, &p1);
    both.extend_from_slice(&encode_frame(FrameKind::Request, 44, &p2));
    stream.write_all(&both).unwrap();
    let mut ids = HashSet::new();
    for _ in 0..2 {
        let reply = read_frame(&mut stream).unwrap().expect("response");
        ids.insert(reply.req_id);
    }
    assert_eq!(ids, HashSet::from([43, 44]));
}

#[test]
fn group_commit_batches_wal_fsyncs_across_connections() {
    const THREADS: usize = 16;
    const OPS: usize = 25;
    let scratch = std::env::temp_dir().join(format!("loco-tcp-pipeline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();

    let id = ServerId::new(class::DMS, 0);
    let registry = MetricsRegistry::shared();
    let metrics = EndpointMetrics::register(&registry, id);
    let store = DurableStore::open(&scratch, BTreeDb::new(KvConfig::default()))
        .unwrap()
        .with_sync_policy(SyncPolicy::EveryRecord);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut guard = serve_tcp(
        id,
        DirServer::with_store(Box::new(store), 0),
        listener,
        ServeOptions {
            metrics: Some(Arc::clone(&metrics)),
            registry: Some(Arc::clone(&registry)),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = guard.addr().to_string();

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            let ep = TcpEndpoint::<DirServer>::with_policy(id, &addr, patient_policy());
            let mut ctx = CallCtx::new();
            for i in 0..OPS {
                let r = ep
                    .try_call(&mut ctx, mkdir_local(format!("/g{t}-{i}")))
                    .unwrap();
                assert!(matches!(r, DmsResponse::Done(Ok(_))));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    guard.shutdown();

    // The committer records every fsync'd batch: `sum` is WAL records
    // covered, `count` is fsyncs issued. Batching means sum > count —
    // under 16 concurrent durable writers at least one fsync must have
    // covered more than one record.
    let labels: [(&str, &str); 2] = [("role", "dms"), ("server", "0")];
    let batch = registry.histogram("loco_wal_batch_size", &labels);
    let total_ops = (THREADS * OPS) as u64;
    assert!(batch.count() > 0, "group committer never ran");
    assert!(
        batch.sum() > batch.count(),
        "no multi-record WAL batch observed: {} fsyncs covered {} records",
        batch.count(),
        batch.sum()
    );
    assert!(
        batch.count() < total_ops,
        "as many fsyncs as ops — group commit amortized nothing"
    );
    // Every mutation was acknowledged, so every record must be durable:
    // a cold reopen of the store replays them all.
    let reopened = DurableStore::open(&scratch, BTreeDb::new(KvConfig::default())).unwrap();
    let mut server = DirServer::with_store(Box::new(reopened), 0);
    use locofs::net::Service;
    for t in 0..THREADS {
        for i in 0..OPS {
            let r = server.handle(DmsRequest::GetDir {
                path: format!("/g{t}-{i}"),
            });
            assert!(
                matches!(r, DmsResponse::Dir(Ok(_))),
                "acked mkdir /g{t}-{i} lost after reopen: {r:?}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}
