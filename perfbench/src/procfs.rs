//! Process-level counters from `/proc`, read only at run boundaries.

use std::fs;

/// Kernel clock ticks per second for `/proc/*/stat` times (`USER_HZ`,
/// fixed at 100 by the Linux user ABI).
pub const TICKS_PER_SEC: f64 = 100.0;

/// One reading of the process-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcSample {
    /// User CPU of all threads, live and exited, in clock ticks.
    pub utime_ticks: u64,
    /// System CPU of all threads, live and exited, in clock ticks.
    pub stime_ticks: u64,
    /// Write-family syscalls (`syscw`).
    pub write_syscalls: u64,
    /// Bytes passed to write-family syscalls (`wchar`).
    pub write_bytes: u64,
    /// Voluntary plus involuntary context switches, summed over the
    /// threads alive at the reading.
    pub ctx_switches: u64,
    /// Peak resident set size (`VmHWM`) in KiB.
    pub peak_rss_kb: u64,
}

impl ProcSample {
    /// Read the current process's counters. Files that cannot be read
    /// leave their fields at zero.
    pub fn read() -> ProcSample {
        let (utime_ticks, stime_ticks) = fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| parse_stat_times(&s))
            .unwrap_or((0, 0));
        let io = fs::read_to_string("/proc/self/io").unwrap_or_default();
        let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
        ProcSample {
            utime_ticks,
            stime_ticks,
            write_syscalls: parse_field(&io, "syscw").unwrap_or(0),
            write_bytes: parse_field(&io, "wchar").unwrap_or(0),
            ctx_switches: task_ctx_switches(),
            peak_rss_kb: parse_field(&status, "VmHWM").unwrap_or(0),
        }
    }

    /// Counter growth from `earlier` to `self` (peak RSS is kept as
    /// read, since it is a high-water mark, not a counter).
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            utime_ticks: self.utime_ticks.saturating_sub(earlier.utime_ticks),
            stime_ticks: self.stime_ticks.saturating_sub(earlier.stime_ticks),
            write_syscalls: self.write_syscalls.saturating_sub(earlier.write_syscalls),
            write_bytes: self.write_bytes.saturating_sub(earlier.write_bytes),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
            peak_rss_kb: self.peak_rss_kb,
        }
    }

    /// User CPU in microseconds.
    pub fn user_us(&self) -> f64 {
        self.utime_ticks as f64 * 1e6 / TICKS_PER_SEC
    }

    /// System CPU in microseconds.
    pub fn sys_us(&self) -> f64 {
        self.stime_ticks as f64 * 1e6 / TICKS_PER_SEC
    }
}

/// `utime` and `stime` (fields 14 and 15) of a `/proc/<pid>/stat`
/// line. The command name (field 2) may hold spaces and parentheses,
/// so fields are counted from its last `)`.
pub fn parse_stat_times(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state): utime is 11 fields further.
    let utime = fields.nth(11)?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// The first number after `key:` in a `key: value` file such as
/// `/proc/self/io` or `/proc/self/status` (units like `kB` ignored).
pub fn parse_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        if k.trim() != key {
            return None;
        }
        v.split_whitespace().next()?.parse().ok()
    })
}

/// Voluntary plus involuntary context switches in one thread's
/// `status` file.
pub fn parse_ctx_switches(status: &str) -> u64 {
    parse_field(status, "voluntary_ctxt_switches").unwrap_or(0)
        + parse_field(status, "nonvoluntary_ctxt_switches").unwrap_or(0)
}

/// Context switches summed over every thread of this process.
fn task_ctx_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else { return 0 };
    tasks
        .filter_map(Result::ok)
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .map(|s| parse_ctx_switches(&s))
        .sum()
}

/// CPU ticks (user + system) of the calling thread.
pub fn thread_cpu_ticks() -> u64 {
    fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|s| parse_stat_times(&s))
        .map_or(0, |(u, s)| u + s)
}

/// `(steal, total)` jiffies from the aggregate `cpu` line of
/// `/proc/stat`: time the hypervisor ran something else while this
/// machine's CPUs wanted to run.
pub fn parse_host_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> =
        line.split_whitespace().skip(1).map(|f| f.parse().ok()).collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user, so the total stops at steal.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Host steal jiffies and all jiffies so far, or `(0, 0)`.
pub fn host_steal() -> (u64, u64) {
    fs::read_to_string("/proc/stat").ok().and_then(|s| parse_host_steal(&s)).unwrap_or((0, 0))
}
