//! Host facts stored with every run, so figures from different machines
//! are never compared as if they came from one (a kernel's GCUPS depends
//! on the ISA the host offers and on how its caches compare with the
//! working set).

use genomedsm_kernels::{effective_lanes, Isa, KernelChoice};
use std::path::Path;

#[derive(Debug, Clone)]
pub struct HostFacts {
    pub isa: &'static str,
    pub lanes: usize,
    pub nproc: usize,
    /// Per-core L2 and last-level cache sizes in bytes (0 when unknown).
    pub l2_bytes: u64,
    pub llc_bytes: u64,
}

impl HostFacts {
    pub fn probe() -> Self {
        let caches = cache_sizes(Path::new("/sys/devices/system/cpu/cpu0/cache"));
        Self {
            isa: Isa::best_available().name(),
            lanes: effective_lanes(KernelChoice::Auto),
            nproc: nproc(),
            l2_bytes: caches.iter().find(|c| c.0 == 2).map_or(0, |c| c.1),
            llc_bytes: caches.iter().max_by_key(|c| c.0).map_or(0, |c| c.1),
        }
    }

    pub fn pairs(&self) -> Vec<(&'static str, String)> {
        vec![
            ("isa", self.isa.to_string()),
            ("effective_lanes", self.lanes.to_string()),
            ("nproc", self.nproc.to_string()),
            ("l2_bytes", self.l2_bytes.to_string()),
            ("llc_bytes", self.llc_bytes.to_string()),
        ]
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(level, bytes)` of every data or unified cache listed under `dir`.
fn cache_sizes(dir: &Path) -> Vec<(u32, u64)> {
    let read = |p: &Path| std::fs::read_to_string(p).map(|s| s.trim().to_string());
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for e in entries.flatten() {
        let p = e.path();
        let (Ok(level), Ok(kind), Ok(size)) = (
            read(&p.join("level")),
            read(&p.join("type")),
            read(&p.join("size")),
        ) else {
            continue;
        };
        if kind == "Instruction" {
            continue;
        }
        if let (Ok(level), Some(bytes)) = (level.parse(), parse_size(&size)) {
            out.push((level, bytes));
        }
    }
    out
}

/// Parses sysfs cache sizes such as `2048K` or `105M`.
fn parse_size(s: &str) -> Option<u64> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|d| d * mult)
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("2048K"), Some(2 << 20));
        assert_eq!(parse_size("105M"), Some(105 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }
}
