//! Keep every CPU out of its idle state while an untraced run's
//! fixed-rate rounds run.
//!
//! On a virtual machine without halt polling an idle vCPU halts, and
//! waking it for the next request costs a trip through the host whose
//! length depends on what the host is doing: on the two-vCPU guest this
//! benchmark was built on, `/decide` p50s drifted by ±40% between runs.
//! One spinner per CPU at `SCHED_IDLE` priority keeps the vCPUs running;
//! any ordinary thread — the service's or the generator's — preempts a
//! spinner at once, so the spinners take no CPU time from the work
//! measured. The price is in the far tail: a host that deschedules a busy
//! vCPU delays the next wake-up on it by a host time slice. So only the
//! gated p50s are taken this way; the traced run measures tails and
//! goodput with the vCPUs left to idle, as deployed.

use std::sync::atomic::{AtomicBool, Ordering};

/// Run `f` with one idle-priority spinner thread per available CPU.
pub fn with_cpus_awake<R>(f: impl FnOnce() -> R) -> R {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..cpus {
            s.spawn(|| {
                if lower_to_idle_priority() {
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                }
            });
        }
        let r = f();
        stop.store(true, Ordering::Relaxed);
        r
    })
}

/// Move the calling thread to `SCHED_IDLE`; false where that is not
/// possible, in which case the thread must not spin.
fn lower_to_idle_priority() -> bool {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct SchedParam {
            priority: i32,
        }
        extern "C" {
            fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
        }
        const SCHED_IDLE: i32 = 5;
        let param = SchedParam { priority: 0 };
        // SAFETY: `param` is a live, properly laid out local for the call;
        // pid 0 changes only the calling thread's policy.
        unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}
