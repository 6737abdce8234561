//! The Linux calls `std` has no safe wrapper for — `wait4` (a child's
//! resource usage), `sched_setaffinity` (pin the calling thread) and glibc's
//! `malloc_trim` — plus the host facts the output header records.

use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("ccq-benchmark reads child rusage through the 64-bit Linux wait4 ABI");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

impl Timeval {
    fn secs(&self) -> f64 {
        self.sec as f64 + self.usec as f64 * 1e-6
    }
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs, of
/// which only `ru_maxrss` (KiB) is read.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    #[cfg(target_env = "gnu")]
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand freed heap pages back to the kernel, so that the next in-process
/// pass of the trace faults its memory in afresh, as every `ccq` child does.
/// Without this the second pass over `sparse_scale` runs twice as fast as
/// the first.
pub fn release_free_memory() {
    // SAFETY: malloc_trim takes no pointer and may be called at any time.
    #[cfg(target_env = "gnu")]
    unsafe {
        malloc_trim(0);
    }
}

/// One finished child process.
pub struct ChildRun {
    pub stdout: Vec<u8>,
    /// Exit code; `None` when a signal ended the child.
    pub exit_code: Option<i32>,
    /// Spawn to exit, with the last byte of stdout read.
    pub wall_s: f64,
    /// User + system CPU time of the child.
    pub cpu_s: f64,
    /// Peak resident set, MiB.
    pub peak_rss_mb: f64,
}

/// Run `program args…` to completion, capturing stdout (stderr is
/// inherited) and the child's own resource usage.
///
/// A spawned child starts out in this process's address space, and the
/// kernel folds that address space's peak resident set into the child's
/// `ru_maxrss` when it execs. The end-to-end modes therefore build nothing
/// in this process (set-up is sampled in a `setup` child), which keeps it at
/// a few MiB, below any `ccq` run.
pub fn run_child(program: &Path, args: &[String]) -> std::io::Result<ChildRun> {
    let start = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let mut stdout = Vec::new();
    child.stdout.take().expect("stdout was piped").read_to_end(&mut stdout)?;

    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `status` and `usage` are valid, exclusively borrowed and of
    // the layout wait4 writes on 64-bit Linux; the pid is a child of this
    // process that nothing else waits on (`Child::wait` is never called).
    let reaped = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
    let wall_s = start.elapsed().as_secs_f64();
    if reaped < 0 {
        return Err(std::io::Error::last_os_error());
    }
    // WIFEXITED / WEXITSTATUS.
    let exit_code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(ChildRun {
        stdout,
        exit_code,
        wall_s,
        cpu_s: usage.utime.secs() + usage.stime.secs(),
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
    })
}

/// [`run_child`] with the child confined to one CPU: spawned from a scoped
/// thread pinned beforehand, since affinity is per thread on Linux and a
/// child inherits its spawner's. The rest of this process keeps its CPUs.
pub fn run_child_on_one_cpu(program: &Path, args: &[String]) -> std::io::Result<ChildRun> {
    std::thread::scope(|s| {
        let pinned = s.spawn(|| {
            pin_current_thread_to_one_cpu()?;
            run_child(program, args)
        });
        pinned.join().expect("pinned thread panicked")
    })
}

/// Pin the calling thread to the last CPU it is allowed on (the first one
/// takes most interrupts), so that `available_parallelism()` reads 1 there
/// and the vendored rayon takes its serial path. Threads spawned afterwards
/// from this one inherit the mask.
pub fn pin_current_thread_to_one_cpu() -> std::io::Result<()> {
    let allowed = allowed_cpus();
    let cpu = *allowed.last().ok_or_else(|| std::io::Error::other("empty affinity mask"))?;
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` outlives the call and `cpusetsize` is its size in
    // bytes; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// CPUs the calling thread may run on, from `/proc/thread-self/status`
/// (`Cpus_allowed_list: 0-1,4`). Empty when the file cannot be read.
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/thread-self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(str::trim)
        .unwrap_or_default();
    parse_cpu_list(list)
}

fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Online processors, as `nproc --all` counts them.
pub fn online_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// Threads this process may run at once (affinity and cgroup quota applied).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), vec![0, 1]);
        assert_eq!(parse_cpu_list("0,2-3,7"), vec![0, 2, 3, 7]);
        assert!(parse_cpu_list("").is_empty());
    }

    #[test]
    fn child_usage_is_read() {
        let run = run_child(Path::new("/bin/sh"), &["-c".into(), "echo hi; exit 3".into()])
            .expect("spawn /bin/sh");
        assert_eq!(run.stdout, b"hi\n");
        assert_eq!(run.exit_code, Some(3));
        assert!(run.wall_s > 0.0 && run.peak_rss_mb > 0.0 && run.cpu_s >= 0.0);
    }

    #[test]
    fn a_child_on_one_cpu_sees_one_cpu() {
        let run = run_child_on_one_cpu(Path::new("/bin/sh"), &["-c".into(), "nproc".into()])
            .expect("spawn /bin/sh");
        assert_eq!(run.stdout, b"1\n");
    }

    #[test]
    fn pinning_a_thread_serialises_it_only() {
        let before = available_parallelism();
        let inside = std::thread::spawn(|| {
            pin_current_thread_to_one_cpu().expect("pin");
            (available_parallelism(), allowed_cpus().len())
        })
        .join()
        .unwrap();
        assert_eq!(inside, (1, 1));
        assert_eq!(available_parallelism(), before);
    }
}
