//! Host facts every report discloses, and the process's peak memory.

use std::path::{Path, PathBuf};

/// Logical CPUs visible to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `path` (`tmpfs`, `ext4`, `overlay`
/// …), from the longest matching mount point in `/proc/mounts`.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mnt, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mnt).then(|| (mnt.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Resets the peak resident set to the current one, so [`peak_rss_mib`]
/// covers only what runs afterwards. Returns whether the kernel allowed it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Returns freed heap pages to the kernel (glibc `malloc_trim`), so the
/// set-up's freed heap does not count in the measured loop's resident set.
pub fn release_freed_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim takes no pointers; it only hands free pages
        // of the malloc arenas back to the kernel.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// A scratch directory under the checkout, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// `perfbench/work/<pid>` under the current directory (the checkout root).
    pub fn create() -> std::io::Result<WorkDir> {
        let dir = Path::new("perfbench")
            .join("work")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir.canonicalize()?))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty `work/` behind either; fails harmlessly while
        // another run still owns a sibling directory.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
