//! Metrics: quantiles, the per-layer breakdown of the traced run, and
//! the JSON result line.

use crate::layers::{Kind, Span};
use crate::run::{Phase, TraceData};
use loco_net::class;
use std::collections::HashMap;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// Build one.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Nearest-rank quantile of `values` (sorted in place), in the input's
/// unit; 0 for an empty slice.
pub fn quantile(values: &mut [u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1] as f64
}

/// Median of a non-empty list of seconds.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Escape a string for JSON.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line the benchmark prints last.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn role(c: u8) -> &'static str {
    match c {
        class::DMS => "dms",
        class::FMS => "fms",
        _ => "ost",
    }
}

/// Labels reported per role, as named in `BENCHMARK.json`.
/// (`GetDir` is left out: the single-DMS client resolves with `StatDir`
/// and never sends it.)
const DMS_LABELS: [&str; 3] = ["Mkdir", "Rmdir", "StatDir"];
const FMS_LABELS: [&str; 6] = [
    "Stat",
    "Create",
    "Remove",
    "TakeFile",
    "PutFile",
    "CountFiles",
];

/// Stages an op's wall time is split into; they sum to it exactly. An
/// RPC whose handler span could not be linked counts whole as `net`.
const STAGES: [&str; 6] = ["client", "net", "handler", "kv", "wal", "commit"];

#[derive(Default)]
struct Mean {
    sum: f64,
    n: u64,
}

impl Mean {
    fn add(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
    }
    fn us(&self) -> f64 {
        ratio(self.sum, self.n as f64) / 1e3
    }
}

/// Time a linked handler span splits into, in nanoseconds.
#[derive(Default, Clone, Copy)]
struct HandlerSplit {
    handler: f64,
    kv: f64,
    wal: f64,
    kv_ops: u64,
}

/// How server handler spans were matched to client RPC spans.
#[derive(Default)]
struct Links {
    by_time: u64,
    by_fingerprint: u64,
    unlinked: u64,
}

/// Link every handler span to the one client RPC to the same server
/// whose interval contains it; ties are broken by request fingerprint.
fn link(spans: &[Span]) -> (HashMap<u64, usize>, Links) {
    let mut rpcs: HashMap<(u8, u16), Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.kind == Kind::Rpc {
            rpcs.entry((s.class, s.index)).or_default().push(i);
        }
    }
    let mut longest: HashMap<(u8, u16), u64> = HashMap::new();
    for (k, v) in rpcs.iter_mut() {
        v.sort_by_key(|&i| spans[i].start);
        longest.insert(*k, v.iter().map(|&i| spans[i].dur()).max().unwrap_or(0));
    }
    let mut linked = HashMap::new();
    let mut links = Links::default();
    for (hi, h) in spans.iter().enumerate() {
        if h.kind != Kind::Handle {
            continue;
        }
        let key = (h.class, h.index);
        let Some(list) = rpcs.get(&key) else {
            links.unlinked += 1;
            continue;
        };
        let reach = longest[&key];
        let upto = list.partition_point(|&i| spans[i].start <= h.start);
        let cands: Vec<usize> = list[..upto]
            .iter()
            .rev()
            .take_while(|&&i| spans[i].start + reach >= h.start)
            .copied()
            .filter(|&i| spans[i].end >= h.end)
            .collect();
        let pick = match cands.as_slice() {
            [one] => {
                links.by_time += 1;
                Some(*one)
            }
            [] => None,
            many => {
                let same: Vec<usize> = many
                    .iter()
                    .copied()
                    .filter(|&i| spans[i].arg == h.arg)
                    .collect();
                (same.len() == 1).then(|| {
                    links.by_fingerprint += 1;
                    same[0]
                })
            }
        };
        match pick {
            Some(ri) => {
                linked.insert(spans[ri].id, hi);
            }
            None => links.unlinked += 1,
        }
    }
    (linked, links)
}

/// The per-layer metrics of a traced pass. `plain_ops_per_s` is the
/// untraced pass of the same run, for the tracing overhead.
pub fn layer_metrics(phase: &Phase, trace: &TraceData, plain_ops_per_s: f64) -> Vec<Metric> {
    let spans = &trace.spans;
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(i);
        }
    }
    let kids = |id: u64| children.get(&id).map(Vec::as_slice).unwrap_or(&[]);
    let (linked, links) = link(spans);

    // Handler self / KV / WAL split of every handler span.
    let split = |h: &Span| {
        let mut out = HandlerSplit::default();
        let (mut kv_direct, mut wal_total, mut kv_in_wal) = (0.0, 0.0, 0.0);
        for &c in kids(h.id) {
            let c = &spans[c];
            match c.kind {
                Kind::Kv => {
                    kv_direct += c.dur() as f64;
                    out.kv_ops += 1;
                }
                Kind::WalCommit | Kind::Checkpoint => {
                    wal_total += c.dur() as f64;
                    for &g in kids(c.id) {
                        if spans[g].kind == Kind::Kv {
                            kv_in_wal += spans[g].dur() as f64;
                            out.kv_ops += 1;
                        }
                    }
                }
                _ => {}
            }
        }
        out.handler = (h.dur() as f64 - kv_direct - wal_total).max(0.0);
        out.kv = kv_direct + kv_in_wal;
        out.wal = (wal_total - kv_in_wal).max(0.0);
        out
    };

    // Group-commit batches per server, by stage start, with the end of
    // the fsync that made each batch durable.
    let mut batches: HashMap<(u8, u16), Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.kind == Kind::Stage && s.arg > 0) {
        let durable = kids(s.id)
            .iter()
            .map(|&f| spans[f].end)
            .max()
            .unwrap_or(s.end);
        batches
            .entry((s.class, s.index))
            .or_default()
            .push((s.start, durable));
    }
    for v in batches.values_mut() {
        v.sort_unstable();
    }
    // Time a ticketed handler's reply stayed parked for its batch.
    let park = |h: &Span, rpc_end: u64| -> f64 {
        if !h.ticket {
            return 0.0;
        }
        let Some(list) = batches.get(&(h.class, h.index)) else {
            return 0.0;
        };
        let i = list.partition_point(|&(start, _)| start < h.end);
        list.get(i)
            .map(|&(_, durable)| durable.min(rpc_end).saturating_sub(h.end) as f64)
            .unwrap_or(0.0)
    };

    // Per-op stage split, by op class.
    let mut stage: HashMap<(bool, &str), f64> = HashMap::new();
    let mut class_ops: HashMap<bool, (u64, f64)> = HashMap::new();
    let mut client_self = Mean::default();
    let mut ops = 0u64;
    let (mut op_rpcs, mut unlinked_rpcs) = (0u64, 0u64);
    for op in spans.iter().filter(|s| s.kind == Kind::Op) {
        ops += 1;
        let mut parts = [0.0f64; STAGES.len()];
        let mut in_rpcs = 0.0;
        for &ri in kids(op.id) {
            let r = &spans[ri];
            if r.kind != Kind::Rpc {
                continue;
            }
            in_rpcs += r.dur() as f64;
            op_rpcs += 1;
            match linked.get(&r.id) {
                Some(&hi) => {
                    let h = &spans[hi];
                    let sp = split(h);
                    let parked = park(h, r.end);
                    parts[1] += (r.dur() as f64 - h.dur() as f64 - parked).max(0.0);
                    parts[2] += sp.handler;
                    parts[3] += sp.kv;
                    parts[4] += sp.wal;
                    parts[5] += parked;
                }
                None => {
                    parts[1] += r.dur() as f64;
                    unlinked_rpcs += 1;
                }
            }
        }
        parts[0] = (op.dur() as f64 - in_rpcs).max(0.0);
        client_self.add(parts[0]);
        for (name, v) in STAGES.iter().zip(parts) {
            *stage.entry((op.write, name)).or_default() += v;
        }
        let e = class_ops.entry(op.write).or_default();
        e.0 += 1;
        e.1 += op.dur() as f64;
    }

    let mut m = Vec::new();
    let opsf = ops as f64;
    m.push(Metric::new("client.self_us", client_self.us(), "us"));
    for c in [class::DMS, class::FMS, class::OST] {
        let n = spans
            .iter()
            .filter(|s| s.kind == Kind::Rpc && s.class == c)
            .count();
        m.push(Metric::new(
            format!("client.rpcs_per_op.{}", role(c)),
            ratio(n as f64, opsf),
            "rpc/op",
        ));
    }
    let (hits, misses) = trace.cache;
    m.push(Metric::new(
        "client.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    ));

    // net: client-observed RPC time, and its part outside the handler.
    let mut rpc_us: HashMap<(u8, bool), Mean> = HashMap::new();
    let mut wait_us: HashMap<u8, Mean> = HashMap::new();
    for r in spans.iter().filter(|s| s.kind == Kind::Rpc) {
        rpc_us
            .entry((r.class, r.write))
            .or_default()
            .add(r.dur() as f64);
        if let Some(&hi) = linked.get(&r.id) {
            let w = r.dur().saturating_sub(spans[hi].dur());
            wait_us.entry(r.class).or_default().add(w as f64);
        }
    }
    let mean_us = |m: Option<&Mean>| m.map(Mean::us).unwrap_or(0.0);
    for (c, kinds) in [
        (class::DMS, &[false, true][..]),
        (class::FMS, &[false, true][..]),
        (class::OST, &[true][..]),
    ] {
        for &w in kinds {
            let rw = if w { "write" } else { "read" };
            m.push(Metric::new(
                format!("net.{}.rpc_us.{rw}", role(c)),
                mean_us(rpc_us.get(&(c, w))),
                "us",
            ));
        }
    }
    for c in [class::DMS, class::FMS, class::OST] {
        m.push(Metric::new(
            format!("net.{}.wait_us", role(c)),
            mean_us(wait_us.get(&c)),
            "us",
        ));
    }
    m.push(Metric::new("net.retries", trace.retries as f64, "count"));
    m.push(Metric::new("net.shed", phase.shed as f64, "count"));
    m.push(Metric::new("net.expired", phase.expired as f64, "count"));

    // Servers: handler time per RPC type, KV time and KV calls per RPC.
    let mut handle_us: HashMap<(u8, &str), Mean> = HashMap::new();
    let mut kv_us: HashMap<u8, Mean> = HashMap::new();
    let mut kv_ops: HashMap<u8, Mean> = HashMap::new();
    let mut mutating_rpcs = 0u64;
    for h in spans.iter().filter(|s| s.kind == Kind::Handle) {
        handle_us
            .entry((h.class, h.label))
            .or_default()
            .add(h.dur() as f64);
        let sp = split(h);
        kv_us.entry(h.class).or_default().add(sp.kv);
        kv_ops.entry(h.class).or_default().add(sp.kv_ops as f64);
        mutating_rpcs += u64::from(h.write);
    }
    for (c, labels) in [(class::DMS, &DMS_LABELS[..]), (class::FMS, &FMS_LABELS[..])] {
        for l in labels {
            m.push(Metric::new(
                format!("{}.handle_us.{l}", role(c)),
                mean_us(handle_us.get(&(c, *l))),
                "us",
            ));
        }
        m.push(Metric::new(
            format!("{}.kv_us", role(c)),
            mean_us(kv_us.get(&c)),
            "us",
        ));
        m.push(Metric::new(
            format!("{}.kv_ops_per_rpc", role(c)),
            kv_ops
                .get(&c)
                .map(|k| ratio(k.sum, k.n as f64))
                .unwrap_or(0.0),
            "call/rpc",
        ));
    }
    m.push(Metric::new(
        "ost.handle_us.RemoveObject",
        mean_us(handle_us.get(&(class::OST, "RemoveObject"))),
        "us",
    ));
    let ost_rpcs = spans
        .iter()
        .filter(|s| s.kind == Kind::Rpc && s.class == class::OST)
        .count();
    let syncs: usize = phase.plans.iter().map(|p| p.gc_flushes).sum();
    m.push(Metric::new(
        "ost.rpcs_per_sync",
        ratio(ost_rpcs as f64, syncs as f64),
        "rpc/sync",
    ));

    // WAL and group commit.
    let mut commit = Mean::default();
    let mut checkpoint = Mean::default();
    let mut stage_us = Mean::default();
    let mut fsync_us = Mean::default();
    for s in spans {
        match s.kind {
            Kind::WalCommit if s.arg > 0 => commit.add(s.dur() as f64),
            Kind::Checkpoint => checkpoint.add(s.dur() as f64),
            Kind::Stage if s.arg > 0 => stage_us.add(s.dur() as f64),
            Kind::Fsync => fsync_us.add(s.dur() as f64),
            _ => {}
        }
    }
    let [records, fsyncs, checkpoints] = trace.wal;
    m.push(Metric::new("wal.commit_us", commit.us(), "us"));
    m.push(Metric::new(
        "wal.records_per_op",
        ratio(records as f64, opsf),
        "rec/op",
    ));
    m.push(Metric::new(
        "wal.fsyncs_per_mutation",
        ratio(fsyncs as f64, mutating_rpcs as f64),
        "fsync/rpc",
    ));
    m.push(Metric::new(
        "wal.batch_records",
        ratio(trace.batches.1 as f64, trace.batches.0 as f64),
        "rec/batch",
    ));
    m.push(Metric::new("wal.checkpoints", checkpoints as f64, "count"));
    m.push(Metric::new("wal.checkpoint_us", checkpoint.us(), "us"));
    m.push(Metric::new("commit.stage_us", stage_us.us(), "us"));
    m.push(Metric::new("commit.fsync_us", fsync_us.us(), "us"));

    // The tracing itself.
    let traced_ops_per_s = phase.ops_per_s();
    m.push(Metric::new(
        "trace.overhead_frac",
        1.0 - ratio(traced_ops_per_s, plain_ops_per_s),
        "ratio",
    ));
    let handles = (links.by_time + links.by_fingerprint + links.unlinked) as f64;
    m.push(Metric::new(
        "trace.link_by_time_frac",
        ratio(links.by_time as f64, handles),
        "ratio",
    ));
    m.push(Metric::new(
        "trace.link_by_fingerprint_frac",
        ratio(links.by_fingerprint as f64, handles),
        "ratio",
    ));
    m.push(Metric::new(
        "trace.rpc_unlinked_frac",
        ratio(unlinked_rpcs as f64, op_rpcs as f64),
        "ratio",
    ));

    // Stage shares per op class; they sum to the class's wall time.
    for write in [false, true] {
        let rw = if write { "write" } else { "read" };
        let (n, wall) = class_ops.get(&write).copied().unwrap_or((0, 0.0));
        let per_op = |v: f64| ratio(v, n as f64) / 1e3;
        m.push(Metric::new(
            format!("stage.{rw}.wall_us"),
            per_op(wall),
            "us",
        ));
        let mut sum = 0.0;
        for name in STAGES {
            let v = stage.get(&(write, name)).copied().unwrap_or(0.0);
            sum += v;
            if !write && name == "commit" {
                continue; // a read never parks for a group commit
            }
            m.push(Metric::new(
                format!("stage.{rw}.{name}_us"),
                per_op(v),
                "us",
            ));
        }
        m.push(Metric::new(
            format!("stage.{rw}.sum_frac"),
            ratio(sum, wall),
            "ratio",
        ));
    }
    m
}
