//! Process CPU time, the clock of every end-to-end timing.
//!
//! On a virtual machine that shares its host, wall time also counts the
//! time the hypervisor gives this machine's CPUs to other tenants (steal
//! time) and the time other processes hold them. Both can double a wall
//! time for minutes. Linux charges a process's CPU time from the
//! scheduler's task clock, which (with steal-time accounting) leaves both
//! out, so CPU time measures the work the engine did. It sums every
//! thread, the data-plane pool's included.

#[cfg(not(target_os = "linux"))]
compile_error!("hape-perf reads CLOCK_PROCESS_CPUTIME_ID and runs on Linux only");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` in `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// A reading of this process's CPU time.
#[derive(Debug, Clone, Copy)]
pub struct CpuTime(u64);

impl CpuTime {
    /// The process's CPU time so far, in nanoseconds since it started.
    pub fn now() -> Self {
        let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
        // fields on the 64-bit Linux targets), and the clock id is one
        // every Linux kernel supports.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
        CpuTime(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
    }

    /// CPU milliseconds the process has used since this reading.
    pub fn ms(self) -> f64 {
        Self::now().0.saturating_sub(self.0) as f64 / 1e6
    }

    /// CPU seconds the process has used since this reading.
    pub fn secs(self) -> f64 {
        self.ms() / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let t = CpuTime::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(x > 0);
        assert!(t.ms() > 0.0);
    }
}
