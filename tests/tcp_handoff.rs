//! Leader/follower reply hand-off on one pooled connection.
//!
//! A `TcpEndpoint` has no reader thread: the callers waiting on a
//! connection take turns reading it, and the one reading files the
//! replies of the others. Every test here narrows the pool to a single
//! socket (`LOCO_RPC_CONNS=1`, set once for this whole test binary), so
//! every caller shares it:
//!
//! * replies that come back out of order (reads overtaking mutations
//!   parked for a group-commit fsync) each reach their own caller;
//! * a reader whose own reply arrives hands the socket on to a parked
//!   follower, which then reads its own later reply;
//! * a follower whose deadline passes while another caller reads times
//!   out on time, and its late reply reaches no later call;
//! * a reader whose deadline passes mid-frame leaves the framing intact
//!   for the next reader of the same socket;
//! * a server that dies fails every waiting caller with
//!   `ConnectionLost` at once, not at its deadline.

use locofs::dms::{DirServer, DmsRequest, DmsResponse};
use locofs::faults::ChaosProxy;
use locofs::kv::{BTreeDb, DurableStore, KvConfig, SyncPolicy};
use locofs::net::frame::{encode_frame, read_frame, FrameKind};
use locofs::net::tcp::{serve_tcp, RetryPolicy, ServeOptions, TcpEndpoint};
use locofs::net::{class, CallCtx, Endpoint, RpcError, RpcResponse, ServerId};
use locofs::obs::MetricsRegistry;
use locofs::types::wire::Wire;
use std::io::Write;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Once};
use std::time::{Duration, Instant};

const DMS: ServerId = ServerId::new(class::DMS, 0);

/// An endpoint whose pool is one connection wide.
fn one_conn_endpoint(addr: &str, policy: RetryPolicy) -> TcpEndpoint<DirServer> {
    static ONE_CONN: Once = Once::new();
    ONE_CONN.call_once(|| std::env::set_var("LOCO_RPC_CONNS", "1"));
    TcpEndpoint::with_policy(DMS, addr, policy)
}

/// One attempt, long deadline, guard off: a failure is the transport's
/// own verdict, not a retry's.
fn single_shot(deadline: Duration) -> RetryPolicy {
    RetryPolicy {
        attempts: 1,
        backoff: Duration::from_millis(1),
        deadline,
        connect_timeout: Duration::from_secs(5),
        reconnect_window: Duration::ZERO,
        retry_budget: 0,
        breaker_threshold: 0,
        breaker_cooldown: Duration::from_millis(100),
    }
}

/// A mkdir whose `uid`/`ctime` carry `tag`, so a later `GetDir` reply
/// can be told apart from every other directory's.
fn tagged_mkdir(path: &str, tag: u32) -> DmsRequest {
    DmsRequest::MkdirLocal {
        path: path.into(),
        mode: 0o755,
        uid: tag,
        gid: 0,
        ts: tag as u64,
    }
}

fn get_dir(path: &str) -> DmsRequest {
    DmsRequest::GetDir { path: path.into() }
}

/// Assert `resp` is the `GetDir` answer for the directory made with
/// `tag`.
fn assert_dir_tag(resp: &DmsResponse, tag: u32, what: &str) {
    match resp {
        DmsResponse::Dir(Ok(d)) => assert!(
            d.uid == tag && d.ctime == tag as u64,
            "{what}: got the reply of another call (uid {}, ctime {})",
            d.uid,
            d.ctime
        ),
        other => panic!("{what}: expected a directory, got {other:?}"),
    }
}

#[test]
fn out_of_order_replies_on_one_socket_reach_their_own_callers() {
    const THREADS: usize = 8;
    const OPS: u32 = 30;
    let scratch = std::env::temp_dir().join(format!("loco-tcp-handoff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    let store = DurableStore::open(&scratch, BTreeDb::new(KvConfig::default()))
        .unwrap()
        .with_sync_policy(SyncPolicy::EveryRecord);
    let registry = MetricsRegistry::shared();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut guard = serve_tcp(
        DMS,
        DirServer::with_store(Box::new(store), 0),
        listener,
        ServeOptions {
            registry: Some(Arc::clone(&registry)),
            ..Default::default()
        },
    )
    .unwrap();
    let ep = one_conn_endpoint(
        &guard.addr().to_string(),
        single_shot(Duration::from_secs(10)),
    );

    // Mutations park in the group committer until their fsync while
    // reads answer at once, so on the shared socket reads overtake the
    // mkdirs sent before them. Each thread checks that every reply it
    // gets is the one for the call it made.
    let start = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS as u32)
        .map(|t| {
            let ep = ep.clone();
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut ctx = CallCtx::new();
                start.wait();
                for i in 0..OPS {
                    let tag = 1 + t * 1000 + i;
                    let path = format!("/h{t}-{i}");
                    let r = ep.try_call(&mut ctx, tagged_mkdir(&path, tag)).unwrap();
                    assert!(matches!(r, DmsResponse::Done(Ok(1))), "mkdir {path}: {r:?}");
                    let r = ep.try_call(&mut ctx, get_dir(&path)).unwrap();
                    assert_dir_tag(&r, tag, &path);
                    let missing = format!("/absent{t}-{i}");
                    let r = ep.try_call(&mut ctx, get_dir(&missing)).unwrap();
                    assert!(
                        matches!(r, DmsResponse::Dir(Err(_))),
                        "{missing}: got the reply of another call: {r:?}"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let labels: [(&str, &str); 2] = [("role", "dms"), ("server", "0")];
    assert_eq!(
        registry.gauge("loco_srv_open_conns", &labels).get(),
        1,
        "every caller must have shared the single pooled connection"
    );
    // Several mkdirs were parked at once (one fsync covered more than
    // one record) while the connection kept carrying reads.
    let batch = registry.histogram("loco_wal_batch_size", &labels);
    assert!(
        batch.sum() > batch.count(),
        "no multi-record WAL batch: {} fsyncs covered {} records",
        batch.count(),
        batch.sum()
    );
    drop(ep);
    guard.shutdown();
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn reader_hands_the_socket_to_a_parked_follower() {
    // A scripted server: it answers the first request at once and the
    // second 300 ms later, so the first caller (the reader) returns
    // while the second is parked with no reply yet.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (got_tx, got_rx) = std::sync::mpsc::channel();
    let server = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let mut ids = Vec::new();
        for _ in 0..2 {
            let frame = read_frame(&mut sock).unwrap().expect("request frame");
            ids.push(frame.req_id);
            got_tx.send(()).unwrap();
        }
        // Both callers wait: the first reads, the second is parked.
        std::thread::sleep(Duration::from_millis(50));
        for (n, id) in ids.into_iter().enumerate() {
            let reply = RpcResponse {
                cost: 0,
                span: None,
                repl: None,
                body: DmsResponse::Done(Ok(n + 1)),
            }
            .to_wire();
            sock.write_all(&encode_frame(FrameKind::Response, id, &reply))
                .unwrap();
            std::thread::sleep(Duration::from_millis(300));
        }
        sock
    });

    const DEADLINE: Duration = Duration::from_secs(10);
    let ep = one_conn_endpoint(&addr, single_shot(DEADLINE));
    let call = |path: &'static str| {
        let ep = ep.clone();
        std::thread::spawn(move || {
            let t0 = Instant::now();
            let r = ep.try_call(&mut CallCtx::new(), get_dir(path)).unwrap();
            (r, t0.elapsed())
        })
    };
    let first = call("/first");
    got_rx.recv().unwrap();
    // Let the first caller take the read side before the second joins.
    std::thread::sleep(Duration::from_millis(50));
    let second = call("/second");
    got_rx.recv().unwrap();
    let (r1, _) = first.join().unwrap();
    let (r2, waited) = second.join().unwrap();
    assert!(matches!(r1, DmsResponse::Done(Ok(1))), "reader got {r1:?}");
    assert!(
        matches!(r2, DmsResponse::Done(Ok(2))),
        "follower got {r2:?}"
    );
    assert!(
        waited < Duration::from_secs(2),
        "the follower waited {waited:?} (deadline {DEADLINE:?}): nobody read its reply"
    );
    drop(server.join().unwrap());
}

#[test]
fn follower_times_out_while_another_caller_reads_and_its_late_reply_is_dropped() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let guard = serve_tcp(
        DMS,
        DirServer::with_sid(locofs::dms::DmsBackend::BTree, KvConfig::default(), 0),
        listener,
        ServeOptions::default(),
    )
    .unwrap();
    let proxy = ChaosProxy::start("127.0.0.1:0", &guard.addr().to_string(), None).unwrap();
    let ep = one_conn_endpoint(proxy.addr(), single_shot(Duration::from_secs(10)));
    let mut ctx = CallCtx::new();
    for (path, tag) in [("/a", 11), ("/b", 22), ("/c", 33)] {
        let r = ep.try_call(&mut ctx, tagged_mkdir(path, tag)).unwrap();
        assert!(matches!(r, DmsResponse::Done(Ok(1))), "mkdir {path}: {r:?}");
    }

    // One byte every 10 ms each way: A's request and reply take about
    // a second, and A reads the socket for all of it.
    proxy.set_dribble(1, Duration::from_millis(10));
    let reader = {
        let ep = ep.clone();
        std::thread::spawn(move || {
            let mut ctx = CallCtx::new();
            let r = ep.try_call(&mut ctx, get_dir("/a")).unwrap();
            assert_dir_tag(&r, 11, "reader /a");
        })
    };
    std::thread::sleep(Duration::from_millis(100));

    // B joins as a follower with a 300 ms budget; its request sits
    // behind A's on the dribbling link.
    const BUDGET: Duration = Duration::from_millis(300);
    let mut bctx = CallCtx::new();
    bctx.set_deadline(BUDGET);
    let t0 = Instant::now();
    let err = ep.try_call(&mut bctx, get_dir("/b")).unwrap_err();
    let waited = t0.elapsed();
    match &err {
        RpcError::Exhausted { last, .. } => assert!(
            matches!(**last, RpcError::Timeout { .. }),
            "follower failed with {last:?}, not a timeout"
        ),
        other => panic!("follower: expected a timeout, got {other:?}"),
    }
    assert!(
        waited >= BUDGET - Duration::from_millis(5) && waited < BUDGET + Duration::from_millis(250),
        "follower gave up after {waited:?}, budget {BUDGET:?}"
    );
    assert!(
        !reader.is_finished(),
        "the reader finished before the follower timed out; nothing was tested"
    );
    reader.join().unwrap();

    // B's late answer is still on the socket, ahead of C's. It must be
    // dropped, not handed to C.
    proxy.reset();
    let r = ep.try_call(&mut ctx, get_dir("/c")).unwrap();
    assert_dir_tag(&r, 33, "call after the timeout");
    let r = ep.try_call(&mut ctx, get_dir("/b")).unwrap();
    assert_dir_tag(&r, 22, "second call after the timeout");
    proxy.shutdown();
}

#[test]
fn reader_timing_out_mid_frame_keeps_the_socket_in_sync() {
    // A scripted server on one connection (no redial is accepted): the
    // first reply stops half-way for longer than its caller waits, then
    // completes; the next call on the same socket must still parse.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        drop(listener);
        for n in 1..=2usize {
            let frame = read_frame(&mut sock).unwrap().expect("request frame");
            let reply = RpcResponse {
                cost: 0,
                span: None,
                repl: None,
                body: DmsResponse::Done(Ok(n)),
            }
            .to_wire();
            let bytes = encode_frame(FrameKind::Response, frame.req_id, &reply);
            let half = bytes.len() / 2;
            sock.write_all(&bytes[..half]).unwrap();
            if n == 1 {
                std::thread::sleep(Duration::from_millis(400));
            }
            sock.write_all(&bytes[half..]).unwrap();
        }
        sock
    });

    let ep = one_conn_endpoint(&addr, single_shot(Duration::from_millis(200)));
    let err = ep
        .try_call(&mut CallCtx::new(), get_dir("/slow"))
        .unwrap_err();
    match &err {
        RpcError::Exhausted { last, .. } => assert!(
            matches!(**last, RpcError::Timeout { .. }),
            "half-sent reply: expected a timeout, got {last:?}"
        ),
        other => panic!("half-sent reply: expected a timeout, got {other:?}"),
    }
    // The rest of the stale reply arrives while nobody waits for it.
    std::thread::sleep(Duration::from_millis(300));
    let r = ep
        .try_call(&mut CallCtx::new(), get_dir("/next"))
        .expect("the call after a mid-frame timeout must parse its reply");
    assert!(matches!(r, DmsResponse::Done(Ok(2))), "next call got {r:?}");
    drop(server.join().unwrap());
}

#[test]
fn server_death_fails_every_parked_waiter_promptly() {
    const WAITERS: usize = 6;
    // A fake server that takes the requests, never answers, then dies.
    // It keeps accepting and closing redials, so a caller's free
    // redial of a lost pooled connection fails the same way.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (killed_tx, killed_rx) = std::sync::mpsc::channel();
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            for _ in 0..WAITERS {
                let frame = read_frame(&mut sock).unwrap().expect("request frame");
                assert_eq!(frame.kind, FrameKind::Request);
            }
            // Every caller has sent; give them time to park.
            std::thread::sleep(Duration::from_millis(100));
            drop(sock);
            killed_tx.send(Instant::now()).unwrap();
            listener.set_nonblocking(true).unwrap();
            while !stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((s, _)) => drop(s),
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            }
        })
    };

    const DEADLINE: Duration = Duration::from_secs(10);
    let ep = one_conn_endpoint(&addr, single_shot(DEADLINE));
    let handles: Vec<_> = (0..WAITERS)
        .map(|w| {
            let ep = ep.clone();
            std::thread::spawn(move || {
                let mut ctx = CallCtx::new();
                let err = ep
                    .try_call(&mut ctx, get_dir(&format!("/w{w}")))
                    .unwrap_err();
                (err, Instant::now())
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let killed = killed_rx.recv().unwrap();
    for (err, at) in &results {
        match err {
            RpcError::Exhausted { last, .. } => assert!(
                matches!(**last, RpcError::ConnectionLost(_)),
                "waiter failed with {last:?}, not ConnectionLost"
            ),
            other => panic!("waiter: expected ConnectionLost, got {other:?}"),
        }
        let after = at.saturating_duration_since(killed);
        assert!(
            after < Duration::from_secs(1),
            "a waiter failed {after:?} after the server died (deadline {DEADLINE:?})"
        );
    }
    stop.store(true, Ordering::Relaxed);
    server.join().unwrap();
}
