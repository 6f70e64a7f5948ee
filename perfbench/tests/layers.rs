//! Checks that the traced run measures the same program as the plain
//! run, and that its numbers come from the wall clock.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::plan::{Workload, ROUNDS};
use perfbench::report::{layer_metrics, quantile};
use perfbench::run::{run_phase, Params, Phase};
use std::path::PathBuf;
use std::sync::Mutex;

/// The span recorder is process-global and the runs compete for the
/// same cores: one test at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn params(workload: Workload, ops_per_client: usize, name: &str) -> Params {
    perfbench::env::pin().expect("no refused LOCO_* knob is set");
    Params {
        workload,
        seed: 7,
        ops_per_client,
        data_root: PathBuf::from(".perfbench-data").join(format!("test-{name}")),
    }
}

fn p50_us(phase: &Phase) -> f64 {
    let mut all: Vec<u64> = (0..ROUNDS).flat_map(|r| phase.latencies(r).0).collect();
    quantile(&mut all, 0.5) / 1e3
}

fn metric(m: &[perfbench::report::Metric], name: &str) -> f64 {
    m.iter()
        .find(|x| x.name == name)
        .unwrap_or_else(|| panic!("metric {name} reported"))
        .value
}

#[test]
fn traced_namespace_fsync_matches_the_plain_run() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let w = Workload::NamespaceFsync;
    let p = params(w, w.ops_per_client(1.0), "fidelity");
    let plain = run_phase(&p, false, 1, 0);
    let traced = run_phase(&p, true, 1, 0);
    let _ = std::fs::remove_dir_all(&p.data_root);
    let _ = std::fs::remove_dir(".perfbench-data");

    assert!(plain.check_errors.is_empty(), "{:?}", plain.check_errors);
    assert!(traced.check_errors.is_empty(), "{:?}", traced.check_errors);
    assert_eq!(plain.drive.failed + traced.drive.failed, 0);
    // Equal op, per-role RPC and WAL record counts; group commit engaged
    // in both passes.
    let errors = perfbench::fidelity(w, &plain, &traced);
    assert!(errors.is_empty(), "{errors:?}");

    // The stage split of every op class adds up to its wall time.
    let trace = traced.trace.as_ref().expect("spans recorded");
    let m = layer_metrics(&traced, trace, plain.ops_per_s());
    for class in ["read", "write"] {
        let sum = metric(&m, &format!("stage.{class}.sum_frac"));
        assert!(
            (sum - 1.0).abs() < 1e-6,
            "{class} stages sum to {sum} of wall time"
        );
    }
    assert!(metric(&m, "commit.fsync_us") > 0.0);
    assert_eq!(metric(&m, "net.retries"), 0.0);
}

#[test]
fn injected_fms_delay_shows_in_wall_clock_metrics() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const DELAY_US: u64 = 2_000;
    let w = Workload::StatWarm;
    let p = params(w, ROUNDS * 40, "delay");
    let base = run_phase(&p, true, 1, 0);
    let slow = run_phase(&p, true, 1, DELAY_US);
    let _ = std::fs::remove_dir_all(&p.data_root);
    let _ = std::fs::remove_dir(".perfbench-data");
    assert_eq!(base.drive.failed + slow.drive.failed, 0);

    let (p50_base, p50_slow) = (p50_us(&base), p50_us(&slow));
    assert!(
        p50_slow - p50_base >= DELAY_US as f64,
        "p50 rose from {p50_base:.1} us to {p50_slow:.1} us, less than the injected delay"
    );
    let stat_us = |ph: &Phase| {
        let m = layer_metrics(
            ph,
            ph.trace.as_ref().expect("spans recorded"),
            ph.ops_per_s(),
        );
        metric(&m, "fms.handle_us.Stat")
    };
    let (h_base, h_slow) = (stat_us(&base), stat_us(&slow));
    assert!(
        h_base < DELAY_US as f64,
        "undelayed Stat handler took {h_base:.1} us"
    );
    assert!(
        h_slow >= DELAY_US as f64,
        "delayed Stat handler took {h_slow:.1} us"
    );
}
