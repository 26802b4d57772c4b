//! What the operating system and the allocator can tell the benchmark
//! about its own process: resource usage (`getrusage`), CPU pinning
//! (`sched_setaffinity`) and a counting global allocator. std has no API
//! for the first two and the benchmark may add no crates, so they are
//! declared here as foreign functions of the C library std already links.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation the process makes; `#[global_allocator]` in
/// `main.rs` installs it. The count is a statistic that publishes no other
/// data, hence `Relaxed`.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's layout obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations (including reallocations) made by the process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two timevals
/// followed by fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

const RUSAGE_SELF: i32 = 0;
/// Bits in the kernel's `cpu_set_t`.
const CPU_SET_BITS: usize = 1024;

/// A `cpu_set_t`: one bit per CPU.
pub type CpuSet = [u64; CPU_SET_BITS / 64];

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// A snapshot of the process's resource usage.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rusage {
    /// User + system CPU time of all threads, microseconds.
    pub cpu_us: u64,
    /// Peak resident set size, KiB.
    pub max_rss_kib: u64,
    /// Voluntary context switches (a thread blocked).
    pub vol_ctxsw: u64,
    /// Involuntary context switches (a thread was preempted).
    pub invol_ctxsw: u64,
}

impl Rusage {
    /// The process's usage now. All zero if the call fails, which on Linux
    /// it cannot for `RUSAGE_SELF` with a valid pointer.
    pub fn now() -> Rusage {
        let mut raw = RawRusage::default();
        // SAFETY: `raw` is a live, writable `struct rusage` of the layout
        // the C library expects on 64-bit Linux.
        if unsafe { getrusage(RUSAGE_SELF, &mut raw) } != 0 {
            return Rusage::default();
        }
        let us = |t: Timeval| (t.sec as u64) * 1_000_000 + t.usec as u64;
        Rusage {
            cpu_us: us(raw.utime) + us(raw.stime),
            max_rss_kib: raw.maxrss as u64,
            vol_ctxsw: raw.nvcsw as u64,
            invol_ctxsw: raw.nivcsw as u64,
        }
    }

    /// Usage accrued since `earlier` (peak RSS is not a difference: it
    /// stays the later snapshot's peak).
    pub fn since(&self, earlier: &Rusage) -> Rusage {
        Rusage {
            cpu_us: self.cpu_us - earlier.cpu_us,
            max_rss_kib: self.max_rss_kib,
            vol_ctxsw: self.vol_ctxsw - earlier.vol_ctxsw,
            invol_ctxsw: self.invol_ctxsw - earlier.invol_ctxsw,
        }
    }
}

/// The CPUs this process may run on, or `None` if the kernel will not say.
fn allowed_cpus() -> Option<CpuSet> {
    let mut set: CpuSet = [0; CPU_SET_BITS / 64];
    // SAFETY: `set` is writable and its size is passed alongside.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    (rc == 0).then_some(set)
}

fn set_affinity(set: &CpuSet) -> i32 {
    // SAFETY: `set` is a valid `cpu_set_t` and its size is passed alongside.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) }
}

/// Run `f` with the calling thread — and every thread it spawns meanwhile
/// — restricted to one CPU: the highest-numbered one it is allowed on
/// (CPU 0 takes most interrupts). Afterwards the thread may run where it
/// could before. If the kernel refuses, a warning is printed and `f` runs
/// unpinned.
pub fn pinned<T>(what: &str, f: impl FnOnce() -> T) -> T {
    let before = allowed_cpus();
    match pin_with(before, set_affinity) {
        Ok(cpu) => eprintln!("{what}: pinned to CPU {cpu}"),
        Err(warning) => eprintln!("{what}: warning: {warning}"),
    }
    let out = f();
    if let Some(set) = before {
        set_affinity(&set);
    }
    out
}

/// The pinning step of [`pinned`] with the system calls injected, so the
/// fallback can be tested without a kernel that refuses. Returns the CPU,
/// or the warning to print when the thread stays unpinned.
pub fn pin_with(
    allowed: Option<CpuSet>,
    set_affinity: impl FnOnce(&CpuSet) -> i32,
) -> Result<usize, String> {
    let allowed = allowed.ok_or("sched_getaffinity failed; running unpinned")?;
    let cpu = (0..CPU_SET_BITS)
        .rev()
        .find(|c| allowed[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("no CPU in the affinity mask; running unpinned")?;
    let mut one: CpuSet = [0; CPU_SET_BITS / 64];
    one[cpu / 64] = 1 << (cpu % 64);
    match set_affinity(&one) {
        0 => Ok(cpu),
        rc => Err(format!(
            "sched_setaffinity to CPU {cpu} failed (rc {rc}); running unpinned"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_falls_back_with_a_warning_when_the_kernel_refuses() {
        let mut allowed: CpuSet = [0; CPU_SET_BITS / 64];
        allowed[0] = 0b101;
        let warning = pin_with(Some(allowed), |_| -1).unwrap_err();
        assert!(warning.contains("running unpinned"), "{warning}");
        assert!(pin_with(None, |_| 0).unwrap_err().contains("unpinned"));
        assert!(pin_with(Some([0; 16]), |_| 0)
            .unwrap_err()
            .contains("unpinned"));
    }

    #[test]
    fn pinning_picks_the_highest_allowed_cpu() {
        let mut allowed: CpuSet = [0; CPU_SET_BITS / 64];
        allowed[0] = 0b101;
        allowed[1] = 0b10;
        let mut asked = None;
        let cpu = pin_with(Some(allowed), |set| {
            asked = Some(*set);
            0
        });
        assert_eq!(cpu, Ok(65));
        let asked = asked.unwrap();
        assert_eq!(asked.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        assert_eq!(asked[1], 0b10);
    }

    #[test]
    fn rusage_reads_and_allocations_count() {
        let before = allocs();
        let v: Vec<u64> = Vec::with_capacity(32);
        std::hint::black_box(&v);
        // The counting allocator is only installed in the binary, so the
        // test binary may see no change; the call itself must not fail.
        assert!(allocs() >= before);
        let ru = Rusage::now();
        assert!(ru.max_rss_kib > 0);
        assert_eq!(ru.since(&ru).cpu_us, 0);
    }
}
