//! What `/proc` says about a process: CPU time, peak resident set, context
//! switches. `pid` is a decimal process id or `"self"`.

use std::fs;
use std::io;

/// `USER_HZ`: the unit of the `utime`/`stime` fields of `/proc/<pid>/stat`.
/// It is part of the Linux ABI and 100 on every architecture this runs on.
const TICKS_PER_SECOND: u64 = 100;

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// `utime + stime` of `stat`'s text, in microseconds. The command name
/// (field 2) may hold spaces and parentheses, so fields are counted from the
/// last `)`.
pub fn parse_cpu_us(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * (1_000_000 / TICKS_PER_SECOND))
}

/// The value of a `Key:   123 kB`-style line of a `status` file.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_ascii_whitespace().next()?.parse().ok())
}

/// CPU time (user + system, all threads, including exited ones) in µs.
pub fn cpu_us(pid: &str) -> io::Result<u64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat"))?;
    parse_cpu_us(&stat).ok_or_else(|| bad("unparseable /proc stat"))
}

/// CPU time of the process's live threads in ns, from the scheduler's own
/// accounting (`schedstat`): precise enough to difference over a 30 ms
/// slice, which the 10 ms ticks of `stat` are not. Threads that have exited
/// are not in it, so it is only differenced while the thread set is stable.
pub fn live_threads_cpu_ns(pid: &str) -> io::Result<u64> {
    let mut total = 0;
    for task in fs::read_dir(format!("/proc/{pid}/task"))? {
        let Ok(text) = fs::read_to_string(task?.path().join("schedstat")) else {
            continue;
        };
        total += text
            .split_ascii_whitespace()
            .next()
            .and_then(|ns| ns.parse::<u64>().ok())
            .unwrap_or(0);
    }
    Ok(total)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb(pid: &str) -> io::Result<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status"))?;
    parse_status_field(&status, "VmHWM")
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| bad("no VmHWM in /proc status"))
}

/// Voluntary plus involuntary context switches, summed over the live
/// threads.
pub fn context_switches(pid: &str) -> io::Result<u64> {
    let mut total = 0;
    for task in fs::read_dir(format!("/proc/{pid}/task"))? {
        // A thread may exit between the directory read and the file read.
        let Ok(status) = fs::read_to_string(task?.path().join("status")) else {
            continue;
        };
        total += parse_status_field(&status, "voluntary_ctxt_switches").unwrap_or(0)
            + parse_status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let stat = "4242 (dcn serve) x) S 1 4242 4242 0 -1 4194560 180 0 0 0 \
                    37 5 0 0 20 0 4 0 12345 1000000 300 18446744073709551615";
        assert_eq!(parse_cpu_us(stat), Some(420_000));
        assert_eq!(parse_cpu_us("garbage"), None);
    }

    #[test]
    fn status_fields_parse_by_exact_key() {
        let status = "Name:\tdcn-serve\nVmHWM:\t   20480 kB\nvoluntary_ctxt_switches:\t7\n\
                      nonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(20480));
        assert_eq!(
            parse_status_field(status, "voluntary_ctxt_switches"),
            Some(7)
        );
        assert_eq!(parse_status_field(status, "VmPeak"), None);
    }

    #[test]
    fn this_process_is_readable() {
        assert!(peak_rss_mb("self").unwrap() > 0.0);
        assert!(context_switches("self").is_ok());
        assert!(cpu_us("self").is_ok());
        // This very thread has been running, so the precise counter is past 0
        // (it is not compared over time here: the test harness's other
        // threads exit as they finish, and take their share with them).
        assert!(live_threads_cpu_ns("self").unwrap() > 0);
    }
}
