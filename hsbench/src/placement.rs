//! Where the benchmark's threads run.
//!
//! Left to the kernel, the client thread and the server's connection thread
//! sit now on one CPU, now on two. On one, a request hands over with a
//! context switch (`PING` 4.5 us round trip on the reference sandbox); on
//! two, each hop wakes an idle virtual CPU (52 us), and a cache-hit query is
//! 0.07 or 0.16 ms accordingly. The kernel moves between the two within a
//! run and, for minutes at a time, from run to run: over 40 alternating
//! pairs of runs of one tenant-mix seed, throughput left to the kernel had an
//! inter-quartile distance of 8.9 % of its median and fell 7 % from the
//! first half of the experiment to the second; pinned, 3.7 % and 0.4 %.
//! So the client is pinned to one CPU and the threads that serve it inherit
//! the pin; in a closed loop they never run at the same time. The engine's
//! pool workers are spawned unpinned and go wherever the kernel puts them,
//! so parallel phases still use every CPU.

use std::sync::OnceLock;

/// A CPU set as the kernel takes it (glibc's 1024-bit `cpu_set_t`).
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
mod sys {
    use super::CpuSet;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The calling thread's CPU set; empty if the kernel refuses.
    pub fn get() -> CpuSet {
        let mut set: CpuSet = [0; 16];
        // SAFETY: pid 0 is the calling thread; the kernel writes at most
        // `size_of::<CpuSet>()` bytes into `set`, which is that large.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
        if rc == 0 {
            set
        } else {
            [0; 16]
        }
    }

    /// Confine the calling thread to `set`. Best effort: a sandbox may
    /// refuse, and the run then goes on unpinned.
    pub fn set(set: &CpuSet) {
        // SAFETY: pid 0 is the calling thread; the kernel reads
        // `size_of::<CpuSet>()` bytes from `set` and writes nothing.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::CpuSet;

    pub fn get() -> CpuSet {
        [0; 16]
    }

    pub fn set(_: &CpuSet) {}
}

/// The CPUs this process may use, read before anything is pinned.
fn allowed() -> &'static CpuSet {
    static ALLOWED: OnceLock<CpuSet> = OnceLock::new();
    ALLOWED.get_or_init(sys::get)
}

/// How many CPUs the process may use (0 if the kernel would not say).
pub fn cpus() -> u32 {
    allowed().iter().map(|word| word.count_ones()).sum()
}

/// Pin the calling thread, the client, to the last CPU it may use. Threads
/// it spawns from now on inherit the pin: the server's accept thread and,
/// through it, every connection thread.
pub fn pin_client() {
    let all = allowed();
    let Some(word) = all.iter().rposition(|word| *word != 0) else {
        return;
    };
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << (63 - all[word].leading_zeros());
    sys::set(&one);
}

/// Run `f` with the calling thread free to use every CPU, then put it back
/// where it was: the threads `f` spawns (a database's pool workers) are not
/// pinned.
pub fn unpinned<T>(f: impl FnOnce() -> T) -> T {
    let before = sys::get();
    sys::set(allowed());
    let out = f();
    sys::set(&before);
    out
}
