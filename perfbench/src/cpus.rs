//! Pinning the calling thread to one CPU (Linux), so every request can run
//! once on each of two CPUs and count its faster run.
//!
//! On shared hosts one virtual CPU at a time is often slowed by a neighbour
//! for seconds at a stretch; the faster of two near-simultaneous runs on
//! different CPUs is far steadier than either run alone. Threads inherit
//! their creator's affinity, which is how a pinned service's workers stay
//! on its CPU.

/// The CPUs the benchmark alternates between: two when at least two are
/// available, otherwise one unpinned lane (`None`).
pub fn lanes() -> Vec<Option<usize>> {
    let cpus = allowed_at_start();
    if cpus.len() >= 2 {
        cpus[..2].iter().copied().map(Some).collect()
    } else {
        vec![None]
    }
}

/// Restrict the calling thread to `cpu`, or to every allowed CPU for
/// `None`. Pinning is best effort: on failure the thread keeps running
/// wherever the scheduler puts it.
pub fn pin(cpu: Option<usize>) {
    sys::set(cpu.map_or_else(allowed_at_start, |c| vec![c]).as_slice());
}

/// The CPUs this process could run on when first asked.
fn allowed_at_start() -> Vec<usize> {
    static ALLOWED: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    ALLOWED.get_or_init(sys::get).clone()
}

#[cfg(target_os = "linux")]
mod sys {
    /// Words of glibc's `cpu_set_t` (1024 CPUs).
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    pub fn set(cpus: &[usize]) {
        let mut mask = [0u64; WORDS];
        for &c in cpus.iter().filter(|&&c| c < WORDS * 64) {
            mask[c / 64] |= 1 << (c % 64);
        }
        if mask.iter().all(|&w| w == 0) {
            return;
        }
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread. A failure leaves affinity as is.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn get() -> Vec<usize> {
        Vec::new()
    }

    pub fn set(_cpus: &[usize]) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_round_trips() {
        let lanes = lanes();
        assert!(!lanes.is_empty() && lanes.len() <= 2);
        for &lane in &lanes {
            pin(lane);
        }
        pin(None);
        assert_eq!(sys::get(), allowed_at_start());
    }
}
