//! What the kernel says about this process: CPU time, peak memory, forced
//! context switches and the processor count. Read from `/proc`, so the
//! benchmark needs no FFI.

use std::fs;

/// Linux reports `utime`/`stime` in ticks of `USER_HZ`, which is 100 on
/// every architecture the kernel supports.
const NS_PER_TICK: u64 = 10_000_000;

/// `utime + stime` of the whole process (every thread, living or joined),
/// in nanoseconds.
pub fn cpu_ns() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name may hold spaces; fields are counted from the last `)`.
    let after = &stat[stat.rfind(')').expect("stat names the command") + 1..];
    let mut fields = after.split_ascii_whitespace();
    let utime: u64 = fields.nth(11).and_then(|f| f.parse().ok()).expect("utime");
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).expect("stime");
    (utime + stime) * NS_PER_TICK
}

fn status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|value| value.parse().ok())
}

/// `VmHWM`: the most resident memory the process ever held, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status_kb(&status, "VmHWM:").expect("VmHWM") as f64 / 1024.0
}

/// Involuntary context switches summed over the live threads.
pub fn involuntary_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| fs::read_to_string(task.path().join("status")).ok())
        .filter_map(|status| status_kb(&status, "nonvoluntary_ctxt_switches:"))
        .sum()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        let before = cpu_ns();
        assert!(cpu_ns() >= before);
        assert!(peak_rss_mb() > 0.5);
        assert!(nproc() >= 1);
        let _ = involuntary_switches();
    }

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tx\nVmHWM:\t    1840 kB\nnonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_kb(status, "VmHWM:"), Some(1840));
        assert_eq!(status_kb(status, "nonvoluntary_ctxt_switches:"), Some(7));
        assert_eq!(status_kb(status, "VmPeak:"), None);
    }
}
