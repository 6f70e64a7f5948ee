//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--spans <file>]`
//!
//! Prints a context line and, last, one JSON result line. Run from the
//! repository root; role data goes under `.perfbench-data/` there and is
//! removed at exit.

use perfbench::plan::Workload;
use perfbench::report::{json_str, result_line};
use perfbench::run::Params;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<std::path::PathBuf>,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--spans" => spans = Some(std::path::PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let pinned = match perfbench::env::pin() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let base = std::path::Path::new(".perfbench-data");
    let data_root = base.join(format!("{}-{}", args.workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&data_root) {
        eprintln!("perfbench: create {}: {e}", data_root.display());
        return ExitCode::from(1);
    }
    let fs = perfbench::fs_type(&data_root);
    // A traced run times two passes of the same op lists (plain and
    // traced), each half as long, so it measures `--seconds` in all.
    let pass_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let params = Params {
        workload: args.workload,
        seed: args.seed,
        ops_per_client: args.workload.ops_per_client(pass_seconds),
        data_root: data_root.clone(),
    };
    let out = if args.trace {
        perfbench::traced(&params, args.spans.as_deref())
    } else {
        perfbench::end_to_end(&params)
    };
    let _ = std::fs::remove_dir_all(&data_root);
    let _ = std::fs::remove_dir(base);

    let mut ctx = vec![
        ("workload".to_string(), args.workload.name().to_string()),
        ("seed".to_string(), args.seed.to_string()),
        ("trace".to_string(), args.trace.to_string()),
        (
            "sync_policy".to_string(),
            args.workload.policy().as_str().to_string(),
        ),
        ("data_dir_fs".to_string(), fs),
        ("clients".to_string(), perfbench::plan::CLIENTS.to_string()),
        (
            "ops_per_client".to_string(),
            params.ops_per_client.to_string(),
        ),
        (
            "cores".to_string(),
            std::thread::available_parallelism()
                .map(|n| n.to_string())
                .unwrap_or_else(|_| "?".into()),
        ),
    ];
    for (k, v) in pinned {
        ctx.push((
            format!("env.{k}"),
            if v.is_empty() { "(cleared)" } else { v }.to_string(),
        ));
    }
    ctx.extend(out.context);
    let body: Vec<String> = ctx
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"context\": {{{}}}}}", body.join(", "));
    println!(
        "{}",
        result_line(out.correct, out.attempted, out.failed, &out.metrics)
    );
    ExitCode::SUCCESS
}
