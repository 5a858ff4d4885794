//! Peak resident memory of the running process.

/// `VmHWM` (peak resident set) from `/proc/<pid>/status` text, in MiB.
/// Returns `None` when the line is missing or malformed.
#[must_use]
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: u64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kib as f64 / 1024.0)
}

/// This process's peak resident memory in MiB.
///
/// # Errors
///
/// Returns the reason the value is unavailable — `/proc` missing or the
/// status file lacking `VmHWM` — rather than a zero.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status unreadable: {e}"))?;
    parse_vm_hwm_mib(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str =
        "Name:\tperf\nVmPeak:\t  250000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n";

    #[test]
    fn reads_the_high_water_mark_in_mib() {
        assert_eq!(parse_vm_hwm_mib(STATUS), Some(50.0));
    }

    #[test]
    fn missing_or_malformed_lines_are_unavailable() {
        assert_eq!(parse_vm_hwm_mib("Name:\tperf\nVmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t 12\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_mib(""), None);
    }
}
