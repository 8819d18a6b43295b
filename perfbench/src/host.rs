//! Host fingerprint and process memory, read once per run.

use std::path::Path;
use std::process::Command;

/// One-line JSON description of the machine and build a result came
/// from: CPU model, usable CPUs, compiler, revision and build profile.
pub fn fingerprint_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"host\": {{\"cpu_model\": \"{}\", \"nproc\": {nproc}, \"rustc\": \"{}\", \
         \"git_rev\": \"{}\", \"profile\": \"{}\"}}}}",
        escape(&cpu),
        escape(env!("PERFBENCH_RUSTC")),
        escape(&git_rev()),
        escape(env!("PERFBENCH_PROFILE")),
    )
}

/// The checked-out revision when run from a git work tree; benchmark
/// checkouts without `.git` report `"none"` rather than searching
/// parent directories for some other repository.
fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "none".to_string();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process so far, in MiB
/// (`VmHWM`); `None` where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Minimal JSON string escaping.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// CPUs the calling thread may run on (its affinity mask); empty where
/// the platform does not say.
pub fn allowed_cpus() -> Vec<usize> {
    affinity::get()
}

/// Runs `f` with the calling thread pinned to `cpu` (when given), then
/// restores the thread's previous CPUs. Threads `f` spawns inherit the
/// pin, so use it only around single-threaded work.
pub fn on_cpu<T>(cpu: Option<usize>, f: impl FnOnce() -> T) -> T {
    let Some(cpu) = cpu else {
        return f();
    };
    let before = affinity::get();
    affinity::set(&[cpu]);
    let out = f();
    if !before.is_empty() {
        affinity::set(&before);
    }
    out
}

#[cfg(target_os = "linux")]
mod affinity {
    /// Words of glibc's `cpu_set_t` (1024 CPUs).
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the byte size
        // passed, and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64).filter(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1).collect()
    }

    pub fn set(cpus: &[usize]) -> bool {
        let mut mask = [0u64; WORDS];
        for &c in cpus.iter().filter(|&&c| c < WORDS * 64) {
            mask[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `mask` is a readable buffer of exactly the byte size
        // passed, and pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn get() -> Vec<usize> {
        Vec::new()
    }

    pub fn set(_cpus: &[usize]) -> bool {
        false
    }
}
