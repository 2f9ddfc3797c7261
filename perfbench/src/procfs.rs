//! Process and per-thread CPU accounting from `/proc/self`.
//!
//! Linux exposes CPU time in clock ticks (`USER_HZ`, 100 per second on
//! every mainstream configuration), so busy shares are resolved to 10 ms
//! of CPU per thread; measurement windows of several seconds keep that
//! well below a percent.

use std::collections::BTreeMap;

/// Clock ticks per second of `/proc` CPU counters.
const TICKS_PER_SEC: f64 = 100.0;

/// utime + stime from a `stat` line, in seconds. The command name may
/// contain spaces and parentheses, so fields are counted after the last `)`.
fn cpu_seconds_of_stat(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the command: state is field 3 of the full line, utime is 14 and
    // stime is 15, i.e. offsets 11 and 12 here.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SEC)
}

/// CPU seconds (user + system, all threads, including exited ones) this
/// process has consumed.
pub fn process_cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat").ok().and_then(|s| cpu_seconds_of_stat(&s)).unwrap_or(0.0)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// CPU seconds per live thread, keyed by thread id, with the thread name.
pub fn thread_cpu() -> BTreeMap<u64, (String, f64)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u64>() else {
            continue;
        };
        let path = entry.path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default().trim().to_string();
        if let Some(cpu) =
            std::fs::read_to_string(path.join("stat")).ok().and_then(|s| cpu_seconds_of_stat(&s))
        {
            out.insert(tid, (comm, cpu));
        }
    }
    out
}

/// Busy share per layer over a window: CPU seconds each thread used between
/// the two snapshots (threads born in the window count from zero), grouped
/// by the longest matching thread-name prefix in `layers`. Threads whose
/// names match no prefix are grouped under `unmapped`, never dropped.
/// Values are percent of one core; the second map lists every thread name
/// that landed in `unmapped`.
pub fn busy_by_layer(
    before: &BTreeMap<u64, (String, f64)>,
    after: &BTreeMap<u64, (String, f64)>,
    wall_seconds: f64,
    layers: &[(String, String)],
) -> (BTreeMap<String, f64>, BTreeMap<String, f64>, Vec<String>) {
    let mut by_layer: BTreeMap<String, f64> = BTreeMap::new();
    let mut by_thread: BTreeMap<String, f64> = BTreeMap::new();
    let mut unmapped = Vec::new();
    for (tid, (comm, cpu)) in after {
        let start = before.get(tid).map(|(_, c)| *c).unwrap_or(0.0);
        let used = (cpu - start).max(0.0);
        let pct = 100.0 * used / wall_seconds.max(1e-9);
        let layer = layers
            .iter()
            .filter(|(prefix, _)| comm.starts_with(prefix.as_str()))
            .max_by_key(|(prefix, _)| prefix.len())
            .map(|(_, layer)| layer.clone());
        let layer = match layer {
            Some(l) => l,
            None => {
                if !unmapped.contains(comm) {
                    unmapped.push(comm.clone());
                }
                "unmapped".to_string()
            }
        };
        *by_layer.entry(layer).or_default() += pct;
        *by_thread.entry(format!("{comm}#{tid}")).or_default() += pct;
    }
    (by_layer, by_thread, unmapped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_awkward_names() {
        let line = "42 (bolt (x) y) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0";
        assert_eq!(cpu_seconds_of_stat(line), Some(3.0));
    }

    #[test]
    fn unmapped_threads_are_reported() {
        let layers = vec![("bolt-matching-".to_string(), "matching".to_string())];
        let before = BTreeMap::new();
        let mut after = BTreeMap::new();
        after.insert(1, ("bolt-matching-0".to_string(), 1.0));
        after.insert(2, ("mystery".to_string(), 0.5));
        let (layer, _, unmapped) = busy_by_layer(&before, &after, 10.0, &layers);
        assert_eq!(layer["matching"], 10.0);
        assert_eq!(layer["unmapped"], 5.0);
        assert_eq!(unmapped, vec!["mystery".to_string()]);
    }

    #[test]
    fn own_process_is_readable() {
        assert!(peak_rss_mb() > 0.0);
        assert!(!thread_cpu().is_empty());
    }
}
