//! What the operating system knows about this process: CPU time, peak
//! resident memory, CPU features. Linux `/proc` only; the end-to-end CPU and
//! memory metrics cannot be measured elsewhere, so a missing file is an error
//! the caller reports instead of a silent zero.

use std::fs;

/// Tells glibc's allocator to keep freed memory instead of handing it back
/// to the kernel: no `mmap` per large allocation, no trimming. MPI libraries
/// configure glibc the same way (MVAPICH and Open MPI set exactly these two
/// parameters so that registered buffers stay mapped), and the workloads are
/// measured as such a library would run them. Returns whether both took.
///
/// With the defaults the memory of every freed 256 KiB frame of `ag_large`
/// went back to the kernel and the next frame was faulted in page by page:
/// 30 % of that workload's CPU was kernel time, and each unmap interrupts the
/// other core to flush its TLB. In a virtual machine both costs depend on
/// what the host is doing at that moment, which made them the least
/// repeatable part of the run.
pub fn keep_freed_memory() -> bool {
    #[cfg(target_env = "gnu")]
    {
        use std::ffi::c_int;
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_MAX: c_int = -4;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        // SAFETY: `mallopt` stores one integer in the allocator's parameters
        // under the allocator's own lock; both parameters accept any value.
        unsafe { mallopt(M_MMAP_MAX, 0) == 1 && mallopt(M_TRIM_THRESHOLD, c_int::MAX) == 1 }
    }
    #[cfg(not(target_env = "gnu"))]
    false
}

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat` (`USER_HZ`, 100 on every Linux ABI).
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds (user + system) this process has consumed, all threads,
/// including threads that have already exited.
pub fn process_cpu_s() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or(&stat);
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "unexpected /proc/self/stat layout".to_string())
    };
    Ok((tick()? + tick()?) / TICKS_PER_S)
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Nanoseconds the calling thread has spent on a CPU, if the kernel keeps
/// scheduler statistics. Probes that involve two threads use it to separate
/// CPU cost from wake-up latency; without it they fall back to wall time.
pub fn thread_cpu_ns() -> Option<u64> {
    let stat = fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

/// Which of `wanted` appear in the first `flags` line of `/proc/cpuinfo`.
pub fn cpu_flags(wanted: &[&str]) -> Vec<String> {
    let info = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags: Vec<&str> = info
        .lines()
        .find(|l| l.starts_with("flags"))
        .map(|l| l.split_whitespace().collect())
        .unwrap_or_default();
    wanted
        .iter()
        .map(|w| {
            let have = flags.contains(w);
            format!("{w}={}", if have { "yes" } else { "no" })
        })
        .collect()
}
