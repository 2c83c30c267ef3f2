//! `botwall-benchmark`: see the library's documentation and `README.md`.

use botwall_benchmark::plan::Workload;
use botwall_benchmark::run::{self, Config};
use botwall_benchmark::stats::result_line;
use botwall_benchmark::{compare, origin, spec, sys};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage:
  botwall-benchmark run --server <botwall-serve> [--workload <name>] [--seed <n>] [--trace <0|1>] [--smoke] [--out <dir>]
  botwall-benchmark compare <dir-a> <dir-b>
  botwall-benchmark hog                 (spin 20 ms of every 40 ms on the benchmark's CPU, until killed)
  botwall-benchmark spec                (print BENCHMARK.json)
  botwall-benchmark origin              (the test bed's origin; started by `run`)";

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let mut workloads = Workload::ALL.to_vec();
    let mut traces = vec![false, true];
    let (mut seed, mut smoke) = (1u64, false);
    let (mut server, mut out): (Option<PathBuf>, Option<PathBuf>) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workloads =
                    vec![Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?];
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            // Not an option: plans are fixed work, so the run length is
            // the benchmark's own. Whoever runs `BENCHMARK.json`'s command
            // passes its `run_seconds` back; anything else is a mistake.
            "--seconds" => {
                if value()?.parse::<u32>() != Ok(spec::RUN_SECONDS) {
                    return Err(format!(
                        "--seconds can only be {}, the run length BENCHMARK.json declares",
                        spec::RUN_SECONDS
                    ));
                }
            }
            "--trace" => {
                traces = vec![match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }]
            }
            "--smoke" => smoke = true,
            "--server" => server = Some(PathBuf::from(value()?)),
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let server_bin = server.ok_or("--server <path to botwall-serve> is required")?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut all_correct = true;
    for &workload in &workloads {
        for &trace in &traces {
            let cfg = Config {
                workload,
                seed,
                trace,
                smoke,
                server_bin: server_bin.clone(),
                exe: exe.clone(),
            };
            let outcome = run::run(&cfg).map_err(|e| format!("{}: {e}", workload.name()))?;
            let reported: Vec<(&str, &str)> =
                outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
            let mut declared = spec::expected(trace);
            declared.sort_unstable();
            let mut sorted = reported.clone();
            sorted.sort_unstable();
            if sorted != declared {
                return Err(format!(
                    "the run reported {reported:?}, BENCHMARK.json declares {declared:?}"
                ));
            }
            println!(
                "# {} seed {seed} trace {} plan {:016x} — loopback only, one core, one operation in flight",
                workload.name(),
                u8::from(trace),
                outcome.plan_hash,
            );
            for m in outcome.metrics.iter().chain(&outcome.notes) {
                println!(
                    "{:<36} {:>16.4} {:<6} n={}",
                    m.name, m.value, m.unit, m.samples
                );
            }
            for why in &outcome.problems {
                println!("! {why}");
            }
            let line = result_line(
                outcome.correct,
                outcome.attempted,
                outcome.failed,
                &outcome.metrics,
            );
            if let Some(dir) = &out {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                let file = dir.join(format!(
                    "{}.{seed}.trace{}.json",
                    workload.name(),
                    u8::from(trace)
                ));
                std::fs::write(&file, format!("{line}\n"))
                    .map_err(|e| format!("{}: {e}", file.display()))?;
            }
            println!("{line}");
            all_correct &= outcome.correct;
        }
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("origin") => origin::run()
            .map(|()| ExitCode::SUCCESS)
            .map_err(|e| e.to_string()),
        Some("run") => run_command(&args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(Path::new(a), Path::new(b))
                .map(|ok| {
                    if ok {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                })
                .map_err(|e| e.to_string()),
            _ => Err(USAGE.to_string()),
        },
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        Some("hog") => {
            sys::pin_to_last_cpu();
            loop {
                let busy = Instant::now();
                while busy.elapsed() < Duration::from_millis(20) {
                    std::hint::spin_loop();
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("botwall-benchmark: {e}");
        ExitCode::FAILURE
    })
}
