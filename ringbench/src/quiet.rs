//! Waiting out the hypervisor. On a shared host, steal comes in episodes
//! that last from a round to several minutes and slow everything several
//! times over; a run that can afford to waits for the episode to pass
//! rather than measuring it.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::procfs;

/// How long a probe runs: on two cores 20 jiffies, enough to tell a
/// quiet host from one stealing more than the 10 % threshold.
const PROBE: Duration = Duration::from_millis(200);
/// Idle time between probes of a noisy host.
const BACKOFF: Duration = Duration::from_secs(2);

/// Share of CPU time stolen while two threads hand a token back and
/// forth for [`PROBE`]. An idle guest is never stolen from, and one that
/// only spins is rarely descheduled; what a busy host delays is the
/// wake-up of a halted vCPU — which is also what every hop of the
/// workloads is made of, so the probe sleeps and wakes like they do.
pub fn probe_steal() -> f64 {
    let (ping, pinged) = mpsc::sync_channel::<()>(0);
    let (pong, ponged) = mpsc::sync_channel::<()>(0);
    let before = procfs::host_cpu();
    std::thread::scope(|scope| {
        scope.spawn(
            move || {
                while pinged.recv().is_ok() && pong.send(()).is_ok() {}
            },
        );
        let end = Instant::now() + PROBE;
        while Instant::now() < end && ping.send(()).is_ok() && ponged.recv().is_ok() {}
        drop(ping);
    });
    procfs::steal_frac(before, procfs::host_cpu())
}

/// Probes until steal is within `max_steal` or `patience` is spent;
/// deducts the time spent from `patience` and returns it. With no
/// patience left it returns at once, without probing.
pub fn wait_for_quiet(patience: &mut Duration, max_steal: f64) -> Duration {
    let started = Instant::now();
    while started.elapsed() < *patience && probe_steal() > max_steal {
        std::thread::sleep(BACKOFF.min(patience.saturating_sub(started.elapsed())));
    }
    let spent = started.elapsed().min(*patience);
    *patience -= spent;
    spent
}

/// Touches and frees `bytes` of fresh memory, so that the pages the
/// clusters are about to fault in are already backed by the host. On a
/// lazily backed VM first touch of never-used guest memory runs at a few
/// hundred MB/s and dominates any workload that grows a heap; that is
/// the sandbox's lazy set-up, not the program's, and it would otherwise
/// make a run's speed depend on what ran in the VM before it.
pub fn warm_memory(bytes: usize) {
    let mut block = vec![0u8; bytes];
    for page in block.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(&block);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_patience_no_wait() {
        let mut patience = Duration::ZERO;
        assert_eq!(wait_for_quiet(&mut patience, 0.0), Duration::ZERO);
    }

    #[test]
    fn waiting_is_bounded_by_patience_and_deducted() {
        // A threshold below zero can never be met: the wait must give up.
        let mut patience = Duration::from_millis(300);
        let t0 = Instant::now();
        let spent = wait_for_quiet(&mut patience, -1.0);
        assert_eq!(spent, Duration::from_millis(300));
        assert_eq!(patience, Duration::ZERO);
        assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
    }
}
