//! This process's CPU time, memory high-water mark and thread count, read
//! from `/proc/self`.

use std::fs;

/// Linux reports `utime`/`stime` in clock ticks of `USER_HZ`, which is 100
/// on every architecture the kernel supports today.
const TICKS_PER_S: f64 = 100.0;

/// Process CPU time (user + system, every thread) in seconds.
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces and parentheses; fields
    // are positional only after its closing parenthesis.
    let rest = stat.get(stat.rfind(')')? + 1..)?;
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

fn status_field(name: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))?;
    line.split_ascii_whitespace().next()?.parse().ok()
}

/// Peak resident set size (`VmHWM`) in MiB. Monotone over the process's
/// life, which is why every workload measures in a process of its own.
pub fn peak_rss_mib() -> Option<f64> {
    status_field("VmHWM").map(|kib| kib / 1024.0)
}

/// Threads alive right now.
pub fn threads() -> Option<f64> {
    status_field("Threads")
}

/// The highest-numbered CPU this process may run on, from the
/// `Cpus_allowed_list` ranges (`0-1`, `0,2-3`).
pub fn last_allowed_cpu() -> Option<u32> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    list.trim().rsplit([',', '-']).next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_present_and_sane() {
        let before = cpu_seconds().expect("cpu time");
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let after = cpu_seconds().expect("cpu time");
        assert!(after >= before);
        assert!(peak_rss_mib().expect("VmHWM") > 0.5);
        assert!(threads().expect("Threads") >= 1.0);
        assert!(last_allowed_cpu().is_some());
    }
}
