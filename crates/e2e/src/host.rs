//! Machine descriptor recorded in every output document: a timing means
//! nothing without the core count, SIMD path, compiler and disk under it.

use mbrpa_serve::json::{obj, s, JsonValue};
use std::path::Path;
use std::process::Command;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Solver thread count `T = min(2, nproc)`; also the client-thread count.
pub fn solver_threads() -> usize {
    nproc().min(2)
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Size of the last-level cache of cpu0 in bytes (0 when sysfs hides it).
pub fn llc_bytes() -> u64 {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best = (0u32, 0u64);
    for k in 0..8 {
        let dir = base.join(format!("index{k}"));
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let (digits, scale) = match size.as_bytes().last() {
            Some(b'K') => (&size[..size.len() - 1], 1024),
            Some(b'M') => (&size[..size.len() - 1], 1024 * 1024),
            _ => (size, 1),
        };
        if let Ok(n) = digits.parse::<u64>() {
            if level > best.0 {
                best = (level, n * scale);
            }
        }
    }
    best.1
}

/// Filesystem type holding `path` (longest mount-point prefix in
/// `/proc/mounts`): fsync costs differ wildly between tmpfs and a disk.
pub fn fs_type(path: &Path) -> String {
    let Ok(abs) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best: (usize, &str) = (0, "unknown");
    for line in mounts.lines() {
        let mut cols = line.split_whitespace();
        let (Some(_dev), Some(mount), Some(fstype)) = (cols.next(), cols.next(), cols.next())
        else {
            continue;
        };
        if abs.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), fstype);
        }
    }
    best.1.to_string()
}

pub fn describe(scratch: &Path) -> JsonValue {
    obj(vec![
        ("nproc", JsonValue::Num(nproc() as f64)),
        ("threads", JsonValue::Num(solver_threads() as f64)),
        ("simd", s(mbrpa_simd::active().name())),
        ("rustc", s(&rustc_version())),
        ("llc_bytes", JsonValue::Num(llc_bytes() as f64)),
        ("scratch_fs", s(&fs_type(scratch))),
    ])
}
