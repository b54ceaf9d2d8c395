//! Process CPU time and peak resident set size from `/proc/self`.

use std::os::raw::{c_int, c_long};

/// User plus system CPU ticks from the text of `/proc/<pid>/stat`
/// (fields 14 and 15, counted after the parenthesised command name,
/// which may itself contain spaces and parentheses).
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14
    // and 15, i.e. the 12th and 13th whitespace-separated tokens here.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size in KiB: the `VmHWM:` line of the text of
/// `/proc/<pid>/status`.
pub fn parse_vmhwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let kb = words.next()?.parse().ok()?;
    (words.next() == Some("kB")).then_some(kb)
}

extern "C" {
    fn sysconf(name: c_int) -> c_long;
}

/// `_SC_CLK_TCK` on Linux (glibc and musl alike).
const SC_CLK_TCK: c_int = 2;

/// Clock ticks per second of the times `/proc/<pid>/stat` reports.
fn ticks_per_second() -> f64 {
    // SAFETY: sysconf reads a process-wide constant; it takes an integer
    // by value, touches no caller memory and is thread-safe.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// CPU seconds (user + system, all threads) this process has used.
///
/// # Panics
///
/// When `/proc/self/stat` is missing or malformed (not Linux).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let ticks = parse_stat_cpu_ticks(&stat).expect("parse /proc/self/stat");
    ticks as f64 / ticks_per_second()
}

/// This process's peak resident set size, in MiB.
///
/// # Panics
///
/// When `/proc/self/status` is missing or has no `VmHWM` line.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vmhwm_kb(&status).expect("parse VmHWM") as f64 / 1024.0
}
