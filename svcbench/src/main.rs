//! `svcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints reference lines, then one JSON object as the last line of
//! standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Exits non-zero unless every
//! check passed.
//!
//! The end-to-end run hosts each server in a child process of its own,
//! `svcbench --serve <data-dir>`; the traced run hosts them in-process,
//! where it can read their internals.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ruid_service::Server;

use svcbench::client::{server_config, Config, Run};
use svcbench::corpus::Sizes;
use svcbench::schedule::Workload;
use svcbench::{calib, report, traced};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// `--serve <data-dir>`: hosts one server, prints `listening <addr>`,
/// and stops it once standard input closes (also when the benchmark
/// process ends without closing it).
fn serve(data_dir: &Path) -> ExitCode {
    let handle = match Server::start(server_config(data_dir)) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("svcbench --serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening {}", handle.addr());
    let _ = std::io::stdout().flush();
    let _ = std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink());
    handle.stop();
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if let [_, flag, dir] = &argv[..] {
        if flag == "--serve" {
            return serve(Path::new(dir));
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("svcbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Scratch space lives in the directory the benchmark is run from.
    let work_dir = PathBuf::from(".svcbench-work").join(format!("run-{}", std::process::id()));
    let config = Config {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        sizes: Sizes::FULL,
        server_exe: if args.trace {
            None
        } else {
            std::env::current_exe().ok()
        },
        work_dir,
    };
    let calib = calib::calib_ms();
    println!("host.calib_ms={calib:.3}");
    let mut run = Run::prepare(config);
    if let Err(e) = run.setup() {
        eprintln!("svcbench: setup failed: {e}");
        run.finish();
        return ExitCode::FAILURE;
    }
    run.global_checks();
    let (metrics, attempted, failed) = if args.trace {
        let metrics = traced::run(&mut run, calib);
        (metrics, run.attempted, run.failed)
    } else {
        run.run_loop(run.config.seconds);
        // The serving process's memory, read while it still serves.
        let rss = run.host.as_ref().and_then(|h| h.rss_mb());
        (report::end_to_end(&run, rss), run.attempted, run.failed)
    };
    for line in report::class_lines(&run) {
        println!("{line}");
    }
    for failure in run.check_failures.iter().chain(&run.op_failures) {
        println!("FAILED {failure}");
    }
    let expected = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    let missing: Vec<&str> = expected
        .iter()
        .copied()
        .filter(|name| !metrics.contains_key(*name))
        .collect();
    if !missing.is_empty() {
        println!("FAILED metrics not measured: {}", missing.join(", "));
    }
    let complete = missing.is_empty() && metrics.len() == expected.len();
    let correct = run.check_failures.is_empty() && failed == 0 && complete;
    run.finish();
    println!(
        "{}",
        report::json_line(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
