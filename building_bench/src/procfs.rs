//! Process CPU time and resident memory, read from `/proc/self`.

/// Kernel clock ticks per second for the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, fixed at 100 on every Linux architecture this runs on).
const USER_HZ: f64 = 100.0;

/// User + system CPU ticks from the text of `/proc/<pid>/stat`.  The
/// command name (field 2) may contain spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Resident set size in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vmrss_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
}

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_ticks(&stat).expect("parse /proc/self/stat") as f64 / USER_HZ
}

/// Resident memory of this process, in MB (2^20 bytes).
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vmrss_kib(&status).expect("parse VmRSS") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_ticks_skip_a_command_name_with_spaces() {
        let stat = "4242 (bench (x) y) S 1 4242 4242 0 -1 4194560 1500 0 0 0 \
                    731 269 0 0 20 0 9 0 12345 1000000 512 18446744073709551615";
        assert_eq!(parse_stat_ticks(stat), Some(1000));
        assert_eq!(parse_stat_ticks("garbage"), None);
    }

    #[test]
    fn vmrss_is_read_in_kib() {
        let status = "Name:\tbench\nVmPeak:\t  90000 kB\nVmRSS:\t   27648 kB\nThreads:\t9\n";
        assert_eq!(parse_vmrss_kib(status), Some(27_648));
        assert_eq!(parse_vmrss_kib("Name:\tbench\n"), None);
    }

    #[test]
    fn live_readers_see_this_process() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed() < std::time::Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() > before, "60 ms of spinning must show");
        assert!(rss_mb() > 0.5);
    }
}
