//! Process memory probe for the scale benches: peak resident set size, read from
//! `/proc/self/status` (`VmHWM`).
//!
//! `VmHWM` is the kernel's high-water mark of the process's resident set — it only ever
//! grows, so a reading is the peak *so far*: a bench reports it after each phase (the
//! replay scale bench reads it after generation, after build and after the replay) and
//! must never keep an earlier phase's data alive into a later one. On platforms without
//! procfs the probe returns `None` and the benches simply omit the RSS lines.

/// Peak resident set size of this process in bytes (`VmHWM`), or `None` when
/// `/proc/self/status` is unavailable or unparseable.
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_kib("VmHWM:").map(|kib| kib * 1024)
}

/// Value of a `kB`-denominated `/proc/self/status` field, e.g. `VmHWM:    123456 kB`.
fn proc_status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_kib(&status, field)
}

fn parse_status_kib(status: &str, field: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .split_whitespace()
        .next()?
        .parse::<u64>()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_status_fields() {
        let status = "Name:\tbench\nVmHWM:\t  123456 kB\nVmRSS:\t     789 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM:"), Some(123_456));
        assert_eq!(parse_status_kib(status, "VmRSS:"), Some(789));
        assert_eq!(parse_status_kib(status, "VmPeak:"), None);
        assert_eq!(parse_status_kib("VmHWM:\tgarbage kB\n", "VmHWM:"), None);
    }

    #[test]
    fn live_probes_are_sane_on_linux() {
        // On Linux procfs is always there. Both fields come from ONE snapshot: the
        // kernel guarantees VmHWM >= VmRSS within a read, while two separate reads race
        // with allocations made by concurrently running tests.
        let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
            return;
        };
        let peak = parse_status_kib(&status, "VmHWM:").expect("VmHWM in procfs status");
        let current = parse_status_kib(&status, "VmRSS:").expect("VmRSS in procfs status");
        assert!(peak >= current);
        assert!(current > 0);
        assert!(peak_rss_bytes().is_some_and(|bytes| bytes % 1024 == 0));
    }

    #[test]
    fn peak_is_monotonic() {
        let before = peak_rss_bytes();
        // Touch a few MiB so the high-water mark cannot go down (it never does).
        let buf = vec![1u8; 4 << 20];
        std::hint::black_box(&buf);
        let after = peak_rss_bytes();
        if let (Some(b), Some(a)) = (before, after) {
            assert!(a >= b);
        }
    }
}
