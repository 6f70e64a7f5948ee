//! Wall-clock benchmark of the LocoFS metadata path.
//!
//! Boots one DMS, two FMS and one OST over localhost TCP inside this
//! process, every role behind its WAL, and drives them with a closed
//! loop of two client threads through the public client API. See
//! `README.md` in this directory for the workloads and metrics.

pub mod env;
pub mod layers;
pub mod plan;
pub mod report;
pub mod run;

use plan::Workload;
use report::{median, quantile, Metric};
use run::{Params, Phase};

/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// What one benchmark invocation reports.
pub struct Outcome {
    /// Every check passed and no op failed.
    pub correct: bool,
    /// Timed ops attempted.
    pub attempted: usize,
    /// Timed ops that failed or returned a wrong result.
    pub failed: usize,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Run context (sample counts, check failures), printed before it.
    pub context: Vec<(String, String)>,
}

/// Filesystem type of the mount holding `path`.
pub fn fs_type(path: &std::path::Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, at, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(at).then(|| (at.len(), fs.to_string()))
        })
        .max()
        .map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".to_string())
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn checks_context(ctx: &mut Vec<(String, String)>, tag: &str, phase: &Phase) {
    ctx.push((
        format!("{tag}.check_errors"),
        phase.check_errors.len().to_string(),
    ));
    for (i, e) in phase.check_errors.iter().take(5).enumerate() {
        ctx.push((format!("{tag}.check_error.{i}"), e.clone()));
    }
}

/// Median over rounds of a per-round latency quantile, in microseconds.
fn round_median(rounds: &mut [Vec<u64>], q: f64) -> f64 {
    let per_round: Vec<f64> = rounds.iter_mut().map(|v| us(quantile(v, q))).collect();
    median(&per_round)
}

fn samples(rounds: &[Vec<u64>]) -> String {
    rounds.iter().map(Vec::len).sum::<usize>().to_string()
}

/// The end-to-end run: tracing off, `SETUPS` set-ups, one timed loop.
/// Throughput and latency quantiles are medians over the rounds.
pub fn end_to_end(p: &Params) -> Outcome {
    let phase = run::run_phase(p, false, SETUPS, 0);
    let (mut all, mut reads, mut writes) = (Vec::new(), Vec::new(), Vec::new());
    for r in 0..phase.drive.rounds.len() {
        let (a, rd, w) = phase.latencies(r);
        all.push(a);
        reads.push(rd);
        writes.push(w);
    }
    let mut ctx = vec![
        ("rounds".to_string(), all.len().to_string()),
        ("samples.all".to_string(), samples(&all)),
        ("samples.read".to_string(), samples(&reads)),
        ("samples.write".to_string(), samples(&writes)),
    ];
    let metrics = vec![
        Metric::new("ops_per_s", median(&phase.round_ops_per_s()), "1/s"),
        Metric::new("p50_us", round_median(&mut all, 0.50), "us"),
        // The tail is p90, not p99: on a shared disk the 200 ms WAL
        // sync each role runs under its service lock stalls about 1 % of
        // ops by a device-dependent time, so p99 follows the disk.
        Metric::new("p90_us", round_median(&mut all, 0.90), "us"),
        Metric::new("read_p90_us", round_median(&mut reads, 0.90), "us"),
        Metric::new("setup_s", median(&phase.setup_secs), "s"),
        Metric::new("peak_rss_mb", phase.peak_rss_mb, "MiB"),
    ];
    let attempted = phase.ops();
    let failed = phase.drive.failed;
    ctx.push((
        "error_rate".into(),
        (failed as f64 / attempted as f64).to_string(),
    ));
    ctx.push((
        "round_ops_per_s".into(),
        format!("{:.0?}", phase.round_ops_per_s()),
    ));
    for (name, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
        let per_round: Vec<f64> = all.iter_mut().map(|v| us(quantile(v, q))).collect();
        ctx.push((format!("round_{name}_us"), format!("{per_round:.1?}")));
    }
    if writes.iter().any(|w| !w.is_empty()) {
        ctx.push((
            "write_p90_us".into(),
            format!("{:.1}", round_median(&mut writes, 0.90)),
        ));
    }
    ctx.push(("setup_s.all".into(), format!("{:.3?}", phase.setup_secs)));
    checks_context(&mut ctx, "plain", &phase);
    Outcome {
        correct: failed == 0 && phase.check_errors.is_empty(),
        attempted,
        failed,
        metrics,
        context: ctx,
    }
}

/// Exact counts the traced pass must reproduce from the plain one, and
/// group commit engaging in both under `every-record`.
pub fn fidelity(w: Workload, plain: &Phase, traced: &Phase) -> Vec<String> {
    let mut errors = Vec::new();
    if plain.ops() != traced.ops() {
        errors.push(format!(
            "ops: plain {} traced {}",
            plain.ops(),
            traced.ops()
        ));
    }
    if plain.rpcs != traced.rpcs {
        errors.push(format!(
            "rpcs per role: plain {:?} traced {:?}",
            plain.rpcs, traced.rpcs
        ));
    }
    if plain.wal_records != traced.wal_records {
        errors.push(format!(
            "wal records: plain {} traced {}",
            plain.wal_records, traced.wal_records
        ));
    }
    if w.policy() == loco_kv::SyncPolicy::EveryRecord {
        for (tag, ph) in [("plain", plain), ("traced", traced)] {
            if ph.commit_batches == 0 || ph.wal_fsyncs >= ph.mutations() {
                errors.push(format!(
                    "{tag}: group commit did not engage ({} batches, {} fsyncs for {} mutations)",
                    ph.commit_batches,
                    ph.wal_fsyncs,
                    ph.mutations()
                ));
            }
        }
    }
    errors
}

/// The traced run: a plain pass and a traced pass of the same op lists,
/// the per-layer metrics of the traced one, and the fidelity check. The
/// spans are written to `spans_out` when given.
pub fn traced(p: &Params, spans_out: Option<&std::path::Path>) -> Outcome {
    let plain = run::run_phase(p, false, 1, 0);
    let traced = run::run_phase(p, true, 1, 0);
    let trace = traced.trace.as_ref().expect("traced pass records spans");
    let written = spans_out.map(|path| layers::write_spans(&trace.spans, path));
    let metrics = report::layer_metrics(&traced, trace, plain.ops_per_s());
    let fid = fidelity(p.workload, &plain, &traced);
    let both =
        |f: &dyn Fn(&Phase) -> String| format!("plain {} / traced {}", f(&plain), f(&traced));
    let mut ctx = vec![
        ("spans".to_string(), trace.spans.len().to_string()),
        (
            "ops_per_s".into(),
            both(&|ph| format!("{:.0}", ph.ops_per_s())),
        ),
        (
            "rpcs.dms_fms_ost".into(),
            both(&|ph| format!("{:?}", ph.rpcs)),
        ),
        ("wal_records".into(), both(&|ph| ph.wal_records.to_string())),
        (
            "commit.batches_fsyncs_mutations".into(),
            both(&|ph| format!("{}/{}/{}", ph.commit_batches, ph.wal_fsyncs, ph.mutations())),
        ),
        ("fidelity_errors".into(), fid.len().to_string()),
    ];
    if let Some(Err(e)) = &written {
        ctx.push(("spans_out_error".to_string(), e.to_string()));
    }
    for (i, e) in fid.iter().enumerate() {
        ctx.push((format!("fidelity_error.{i}"), e.clone()));
    }
    checks_context(&mut ctx, "plain", &plain);
    checks_context(&mut ctx, "traced", &traced);
    let failed = plain.drive.failed + traced.drive.failed;
    Outcome {
        correct: failed == 0
            && fid.is_empty()
            && plain.check_errors.is_empty()
            && traced.check_errors.is_empty(),
        attempted: plain.ops() + traced.ops(),
        failed,
        metrics,
        context: ctx,
    }
}
