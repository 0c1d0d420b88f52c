//! What the benchmark reads about the machine and the checkout it runs in.

use std::path::Path;
use std::time::{Duration, Instant};

/// Peak resident set size of this process (`VmHWM`), in MiB; `None`
/// where `/proc/self/status` is missing. Mirrors `anacin_bench::scale`.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Reset the peak-RSS watermark so the next [`peak_rss_mib`] covers only
/// what runs in between. False where `/proc/self/clear_refs` is missing.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Bytes of the regular files under `dir`, 0 where it does not exist.
/// Symbolic links are not followed.
pub fn tree_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => tree_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}

/// (steal, total) CPU time of the whole machine since boot, in clock
/// ticks, from `/proc/stat`; `None` where it is missing. Steal is time
/// the hypervisor ran something else while this machine's CPUs had work.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // The guest fields after steal are already counted in user and nice.
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Share (0 to 1) of the machine's CPU time stolen between two
/// [`cpu_ticks`] readings; 0 when either is missing.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) => {
            crate::stats::ratio(s1.saturating_sub(s0) as f64, t1.saturating_sub(t0) as f64)
        }
        _ => 0.0,
    }
}

/// Keep every CPU busy in slices of `slice` until less than `max_share`
/// of their time is stolen in one slice, or `limit` has passed. Steal
/// only shows while CPUs have work, so the wait makes work. Returns the
/// seconds spent and the steal share of the last slice.
pub fn wait_for_quiet(max_share: f64, slice: Duration, limit: Duration) -> (f64, f64) {
    let started = Instant::now();
    loop {
        let before = cpu_ticks();
        let end = Instant::now() + slice;
        std::thread::scope(|s| {
            for _ in 0..nproc() {
                s.spawn(|| {
                    while Instant::now() < end {
                        std::hint::spin_loop();
                    }
                });
            }
        });
        let share = steal_share(before, cpu_ticks());
        if share < max_share || started.elapsed() >= limit {
            return (started.elapsed().as_secs_f64(), share);
        }
    }
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The commit checked out in `root`, read from `.git` without running
/// git; "unknown" when `root` is not a git checkout.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(hash) = read(&git.join(reference)) {
        return hash;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `path` (from
/// `/proc/self/mountinfo`), or "unknown".
pub fn filesystem(path: &Path) -> String {
    let (Ok(path), Ok(info)) = (
        path.canonicalize(),
        std::fs::read_to_string("/proc/self/mountinfo"),
    ) else {
        return "unknown".to_string();
    };
    info.lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            let mount = Path::new(*fields.get(4)?);
            let sep = fields.iter().position(|f| *f == "-")?;
            let fstype = *fields.get(sep + 1)?;
            path.starts_with(mount)
                .then(|| (mount.as_os_str().len(), fstype.to_string()))
        })
        .max_by_key(|(depth, _)| *depth)
        .map(|(_, fstype)| fstype)
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_facts_are_readable() {
        assert!(nproc() >= 1);
        if reset_peak_rss() {
            assert!(peak_rss_mib().unwrap() > 0.0);
        }
        assert!(!filesystem(Path::new(".")).is_empty());
        assert_eq!(commit(Path::new("/nonexistent")), "unknown");
        assert_eq!(tree_bytes(Path::new("/nonexistent")), 0);
        if let Some((steal, total)) = cpu_ticks() {
            assert!(steal <= total && total > 0);
        }
        assert!(tree_bytes(Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/src"))) > 0);
    }
}
