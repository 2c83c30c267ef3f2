//! The benchmark's few direct system calls and `/proc` readers.
//!
//! All `unsafe` of the benchmark lives here, declared against the libc
//! every Linux binary already links (the way `shims/reactor` declares
//! epoll), so no `taskset`, no `libc` crate.

use std::fs;
use std::io;
use std::os::unix::process::CommandExt;
use std::process::Command;

mod ffi {
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    pub const CLOCK_MONOTONIC: i32 = 1;
    pub const PR_SET_PDEATHSIG: i32 = 1;
    pub const SIGKILL: u64 = 9;
    pub const SIGTERM: i32 = 15;

    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        pub fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
        pub fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
        pub fn kill(pid: i32, sig: i32) -> i32;
    }
}

/// Words of a kernel `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

/// Pins the calling process to the last CPU of its allowed mask and
/// returns that CPU, or `-1` if the mask could not be read or narrowed
/// (the run then continues unpinned and says so). Children spawned
/// afterwards inherit the mask, which is how the load generator, the
/// server and the origin come to share one core.
pub fn pin_to_last_cpu() -> i32 {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    if unsafe { ffi::sched_getaffinity(0, CPU_SET_WORDS * 8, mask.as_mut_ptr()) } != 0 {
        return -1;
    }
    let Some(cpu) = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
    else {
        return -1;
    };
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    if unsafe { ffi::sched_setaffinity(0, CPU_SET_WORDS * 8, one.as_ptr()) } != 0 {
        return -1;
    }
    cpu as i32
}

/// `CLOCK_MONOTONIC` in nanoseconds: one clock for every process of the
/// test bed, so a stamp taken in the origin can be subtracted from one
/// taken in the load generator.
pub fn monotonic_ns() -> u64 {
    let mut ts = ffi::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec; CLOCK_MONOTONIC always exists.
    unsafe { ffi::clock_gettime(ffi::CLOCK_MONOTONIC, &mut ts) };
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Makes the kernel kill the child when this process dies, so a crashed
/// or killed benchmark leaves no server or origin behind.
pub fn die_with_parent(cmd: &mut Command) {
    // SAFETY: the closure runs between fork and exec and makes one
    // async-signal-safe system call; it touches no memory of the parent.
    unsafe {
        cmd.pre_exec(|| {
            if ffi::prctl(ffi::PR_SET_PDEATHSIG, ffi::SIGKILL, 0, 0, 0) != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        });
    }
}

/// Asks a child to terminate cleanly (the server drains on SIGTERM).
pub fn terminate(pid: u32) {
    // SAFETY: plain system call; a stale pid at worst returns ESRCH.
    unsafe { ffi::kill(pid as i32, ffi::SIGTERM) };
}

/// What `/proc/<pid>` says about one process.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// Nanoseconds spent on a CPU (`schedstat` field 1; exact on a shared
    /// core, where it is updated at every context switch).
    pub cpu_ns: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    /// Peak resident set (`VmHWM`), in kilobytes.
    pub rss_peak_kb: u64,
}

/// Reads [`ProcSample`] for `pid` (whose only thread is its main thread).
pub fn proc_sample(pid: u32) -> io::Result<ProcSample> {
    let sched = fs::read_to_string(format!("/proc/{pid}/schedstat"))?;
    let status = fs::read_to_string(format!("/proc/{pid}/status"))?;
    let field = |name: &str| -> u64 {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    Ok(ProcSample {
        cpu_ns: sched
            .split_whitespace()
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
        ctx_switches: field("voluntary_ctxt_switches:") + field("nonvoluntary_ctxt_switches:"),
        rss_peak_kb: field("VmHWM:"),
    })
}

/// Jiffies from `/proc/stat`, for the `host.*` metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSample {
    /// Sum of all columns of the aggregate `cpu` line.
    pub total: u64,
    /// The aggregate `steal` column.
    pub steal: u64,
    /// Busy (non-idle, non-iowait) and total jiffies of the CPUs other
    /// than the pinned one.
    pub other_busy: u64,
    /// See `other_busy`.
    pub other_total: u64,
}

/// Samples `/proc/stat`; `pinned` is the CPU the test bed runs on (`-1`
/// counts every CPU as "other").
pub fn host_sample(pinned: i32) -> HostSample {
    let mut s = HostSample::default();
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return s;
    };
    for line in stat.lines() {
        let mut cols = line.split_whitespace();
        let Some(name) = cols.next() else { continue };
        let Some(cpu) = name.strip_prefix("cpu") else {
            continue;
        };
        let v: Vec<u64> = cols.filter_map(|c| c.parse().ok()).collect();
        if v.len() < 8 {
            continue;
        }
        let total: u64 = v[..8].iter().sum();
        if cpu.is_empty() {
            s.total = total;
            s.steal = v[7];
        } else if cpu.parse::<i32>().ok() != Some(pinned) {
            s.other_total += total;
            s.other_busy += total - v[3] - v[4];
        }
    }
    s
}

/// Nanoseconds a fixed arithmetic loop takes: the host's ALU speed,
/// which the slow phases of this kind of host leave alone (they hit
/// system calls), so it tells a slow CPU from a slow kernel path.
pub fn alu_calibration_ns() -> u64 {
    let mut best = u64::MAX;
    for _ in 0..5 {
        let start = monotonic_ns();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..200_000u64 {
            x = std::hint::black_box(x ^ (x >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9) + i;
        }
        std::hint::black_box(x);
        best = best.min(monotonic_ns() - start);
    }
    best
}
