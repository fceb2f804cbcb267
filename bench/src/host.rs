//! Host facts and the calibration kernel.

use std::hint::black_box;
use std::time::Instant;

/// Peak resident set of this process (`VmHWM`) in MiB, read from
/// `/proc/self/status`; `None` where procfs is absent.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins this process — and every thread it starts from here on — to the CPU
/// it is running on, and returns that CPU; `None` when the kernel refuses.
pub fn pin_to_current_cpu() -> Option<usize> {
    // The kernel's `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    // SAFETY: `sched_getcpu` takes no arguments and touches no memory.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    *mask.get_mut(cpu / 64)? = 1 << (cpu % 64);
    // SAFETY: `mask` outlives the call and its size is the one passed.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (status == 0).then_some(cpu)
}

/// The CPU model string of `/proc/cpuinfo` (empty when unknown).
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_default()
}

/// A fixed kernel timed before the first and after the last round: an
/// arithmetic loop (core speed) plus a dependent pointer chase through a
/// 64 MiB cycle (memory latency).  Diagnostic only — it is never used to
/// normalise a metric; a large before/after difference flags the run
/// `unquiet`.
pub struct Calibration {
    next: Vec<u32>,
}

impl Calibration {
    const SLOTS: usize = (64 << 20) / 4;
    const CHASE_STEPS: usize = 1 << 20;
    const ARITH_STEPS: u64 = 1 << 24;

    /// Builds the chase cycle (Sattolo's algorithm over a fixed stream, so
    /// every run chases the same cycle).
    pub fn new() -> Self {
        let mut next: Vec<u32> = (0..Self::SLOTS as u32).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..next.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let j = (state % i as u64) as usize;
            next.swap(i, j);
        }
        Calibration { next }
    }

    /// Runs the kernel three times and returns the median wall time in
    /// milliseconds.
    pub fn run_ms(&self) -> f64 {
        let mut runs = [self.once_ms(), self.once_ms(), self.once_ms()];
        runs.sort_by(|a, b| a.partial_cmp(b).expect("times are never NaN"));
        runs[1]
    }

    fn once_ms(&self) -> f64 {
        let started = Instant::now();
        // Xorshift: a dependent chain the compiler cannot put in closed form.
        let mut acc = 88_172_645_463_325_252u64;
        for _ in 0..Self::ARITH_STEPS {
            acc ^= acc << 13;
            acc ^= acc >> 7;
            acc ^= acc << 17;
        }
        let mut at = (black_box(acc) % Self::SLOTS as u64) as u32;
        for _ in 0..Self::CHASE_STEPS {
            at = self.next[at as usize];
        }
        black_box(at);
        started.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_facts_are_readable() {
        assert!(nproc() >= 1);
        if let Some(rss) = peak_rss_mib() {
            assert!(rss > 0.0);
        }
    }
}
