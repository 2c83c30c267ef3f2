//! Every workload, end to end, at smoke size: real server process, real
//! origin process, real sockets.

use botwall_benchmark::plan::Workload;
use botwall_benchmark::run::{run, Config};
use botwall_benchmark::spec;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Builds `botwall-serve` (release, offline) into the target directory
/// these tests were built into, and returns the binary.
fn server_binary() -> PathBuf {
    let exe = std::env::current_exe().expect("the test knows its own path");
    // <target>/<profile>/deps/<test binary>
    let target = exe
        .ancestors()
        .nth(3)
        .expect("a target directory")
        .to_path_buf();
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the repository root");
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "botwall-serve",
            "--bin",
            "botwall-serve",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "botwall-serve builds");
    target.join("release/botwall-serve")
}

fn config(workload: Workload, trace: bool, server_bin: &Path) -> Config {
    Config {
        workload,
        seed: 11,
        trace,
        smoke: true,
        server_bin: server_bin.to_path_buf(),
        exe: PathBuf::from(env!("CARGO_BIN_EXE_botwall-benchmark")),
    }
}

#[test]
fn smoke_plans_run_every_workload_with_zero_failed_operations() {
    let server = server_binary();
    let started = Instant::now();
    for workload in Workload::ALL {
        let outcome = run(&config(workload, false, &server)).expect("the run completes");
        assert!(
            outcome.correct,
            "{}: {:?}",
            workload.name(),
            outcome.problems
        );
        assert_eq!(
            outcome.failed,
            0,
            "{}: {:?}",
            workload.name(),
            outcome.problems
        );
        assert!(outcome.attempted > 100);
        let names: Vec<_> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(names.len(), spec::expected(false).len());
        assert!(
            spec::expected(false).iter().all(|m| names.contains(m)),
            "{names:?}"
        );
        assert!(
            outcome
                .metrics
                .iter()
                .all(|m| m.value.is_finite() && m.value > 0.0),
            "{:?}",
            outcome.metrics
        );
    }
    assert!(
        started.elapsed().as_secs() < 10,
        "smoke took {:?}",
        started.elapsed()
    );

    // One traced run: every per-layer metric, once each.
    let outcome =
        run(&config(Workload::BrowseMix, true, &server)).expect("the traced run completes");
    assert!(
        outcome.correct && outcome.failed == 0,
        "{:?}",
        outcome.problems
    );
    let mut names: Vec<_> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
    let mut declared = spec::expected(true);
    names.sort_unstable();
    declared.sort_unstable();
    assert_eq!(names, declared);
    let share = outcome
        .metrics
        .iter()
        .find(|m| m.name == "trace.unattributed_share")
        .expect("reported");
    assert!(share.value.is_finite());
}

#[test]
fn benchmark_json_is_what_the_binary_declares() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the repository root");
    let committed =
        std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json exists");
    assert_eq!(committed, spec::benchmark_json());
}
