//! Pin every `LOCO_*` knob the benchmark depends on before anything
//! reads one.

/// Knobs set to a fixed value (each equals the program's default,
/// except `LOCO_TRACE`, pinned off explicitly).
pub const SET: [(&str, &str); 6] = [
    ("LOCO_TRACE", "off"),
    ("LOCO_GROUP_COMMIT", "on"),
    ("LOCO_SERVER_CORE", "event"),
    ("LOCO_RPC_CONNS", "2"),
    ("LOCO_GUARD", "on"),
    ("LOCO_METRICS", "off"),
];

/// Knobs cleared, so the program's defaults apply.
pub const CLEAR: [&str; 16] = [
    "LOCO_OP_DEADLINE_MS",
    "LOCO_PROF",
    "LOCO_LOG",
    "LOCO_LOG_STDERR",
    "LOCO_LOG_RING",
    "LOCO_LOG_DUMP",
    "LOCO_LOG_SOURCE",
    "LOCO_RPC_ATTEMPTS",
    "LOCO_RPC_BACKOFF_MS",
    "LOCO_RPC_DEADLINE_MS",
    "LOCO_RPC_RECONNECT_MS",
    "LOCO_RPC_RETRY_BUDGET",
    "LOCO_RPC_BRKR_THRESHOLD",
    "LOCO_RPC_BRKR_COOLDOWN_MS",
    "LOCO_DMS_FAILOVER_MS",
    "LOCO_REPL_AUTO_PROMOTE",
];

/// Knobs that make the run measure something else: with
/// `LOCO_CLUSTER` set, `TransportCluster::new` silently dials external
/// daemons; the fault knobs crash or fail the WAL on purpose.
pub const REFUSE: [&str; 4] = [
    "LOCO_CLUSTER",
    "LOCO_CLUSTER_FILE",
    "LOCO_CRASHPOINT",
    "LOCO_IOFAULT",
];

/// Pin the environment. Must run while the process is single-threaded.
/// Returns the pinned `(knob, value)` pairs (`""` = cleared), or the
/// name of a refused knob that is set.
pub fn pin() -> Result<Vec<(&'static str, &'static str)>, String> {
    if let Some(k) = REFUSE.iter().find(|k| std::env::var_os(k).is_some()) {
        return Err(format!(
            "{k} is set; unset it to benchmark an in-process cluster"
        ));
    }
    let mut pinned = Vec::new();
    for (k, v) in SET {
        std::env::set_var(k, v);
        pinned.push((k, v));
    }
    for k in CLEAR {
        std::env::remove_var(k);
        pinned.push((k, ""));
    }
    Ok(pinned)
}
