//! Keeps the sandbox's virtual CPUs from going idle while a run measures.
//!
//! An idle vCPU is descheduled by the host, and waking it takes anything
//! from 0.1 to several milliseconds, at the host's whim. A workload with
//! idle gaps — the open loop at 40 % load, a writer waiting for fsync —
//! pays that on every wake-up: on this box, same seed, `http_open` read
//! 5.0 ms ± 49 % at the median without this and 3.4 ms ± 5 % with it.
//!
//! One thread per core runs under `SCHED_IDLE`, so it only ever gets a
//! core nobody else wants, and calls `sched_yield` in a loop rather than
//! spinning in user space: this kernel preempts lazily, at the next entry
//! into the kernel, and a pure spinner would hold a woken thread off its
//! core until the next timer tick (measured: `Engine::update`, which
//! hands work to scoped threads, 4.2 ms → 7.5 ms). With the yield the
//! closed-loop workloads read the same with and without these threads.
//! It is what `idle=poll` would do on a machine one could configure.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// `struct sched_param` of `<sched.h>`.
#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// `SCHED_IDLE` of `<sched.h>` on Linux.
const SCHED_IDLE: i32 = 5;

/// Idle-class threads that stop and are joined when this is dropped.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    /// One idle-class thread per available core.
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = (0..cores)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: `param` is a live `struct sched_param` that
                    // the call only reads; pid 0 names the calling thread.
                    let lowered = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0;
                    // A thread that could not lower itself would compete
                    // with the system under test: do not loop.
                    while lowered && !stop.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            // The loop cannot panic; nothing to report.
            let _ = thread.join();
        }
    }
}
