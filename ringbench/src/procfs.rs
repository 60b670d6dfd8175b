//! Readers for the `/proc` files the benchmark differences: host steal,
//! process CPU, and per-thread scheduler statistics.
//!
//! Every layer is measured from outside the product crates, so CPU
//! attribution comes from the kernel's own accounting of the threads
//! `Cluster::start` spawned (or the `ring-server` processes the
//! loopback harness spawned), not from counters added to the program.

use std::fs;

/// `/proc/*/stat` reports CPU time in `USER_HZ` ticks, fixed at 100 on
/// Linux regardless of the kernel's internal tick.
const TICK_US: f64 = 10_000.0;

/// Host-wide CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostCpu {
    /// Jiffies stolen by the hypervisor.
    pub steal: u64,
    /// Sum of every accounted state (user … steal), i.e. elapsed CPU
    /// time across all cores.
    pub total: u64,
}

/// Parses the aggregate `cpu` line of `/proc/stat`.
pub fn parse_host_cpu(stat: &str) -> Option<HostCpu> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user, so only the first eight count.
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some(HostCpu {
        steal: *fields.get(7)?,
        total: fields.iter().sum(),
    })
}

/// Current host CPU jiffies (zeros if `/proc/stat` is unreadable, which
/// makes every round count as steal-free rather than failing the run).
pub fn host_cpu() -> HostCpu {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_host_cpu(&s))
        .unwrap_or_default()
}

/// Share of elapsed CPU time the hypervisor stole between two readings.
pub fn steal_frac(before: HostCpu, after: HostCpu) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    after.steal.saturating_sub(before.steal) as f64 / total as f64
}

/// `(ppid, utime + stime in µs)` of a process.
pub fn parse_process_stat(stat: &str) -> Option<(u32, f64)> {
    // The command name is parenthesised and may itself contain spaces
    // and parentheses; the numeric fields follow the last `)`:
    // state(0) ppid(1) … utime(11) stime(12).
    let rest = &stat[stat.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let num = |i: usize| f.get(i)?.parse::<u64>().ok();
    Some((num(1)? as u32, (num(11)? + num(12)?) as f64 * TICK_US))
}

/// CPU µs (user + system) consumed so far by process `pid`, all threads
/// including exited ones.
pub fn process_cpu_us(pid: u32) -> Option<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    parse_process_stat(&stat).map(|(_, cpu_us)| cpu_us)
}

/// Scheduler statistics of one thread or a sum of threads.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sched {
    /// Nanoseconds on a CPU.
    pub run_ns: u64,
    /// Nanoseconds runnable but waiting on a run queue.
    pub wait_ns: u64,
    /// Timeslices run: one per wakeup or preemption.
    pub slices: u64,
}

impl Sched {
    /// Field-wise `self - earlier`.
    pub fn since(self, earlier: Sched) -> Sched {
        Sched {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
            slices: self.slices.saturating_sub(earlier.slices),
        }
    }

    /// Field-wise sum.
    pub fn plus(self, other: Sched) -> Sched {
        Sched {
            run_ns: self.run_ns + other.run_ns,
            wait_ns: self.wait_ns + other.wait_ns,
            slices: self.slices + other.slices,
        }
    }
}

/// Parses one `schedstat` line: `run_ns wait_ns timeslices`.
pub fn parse_schedstat(text: &str) -> Option<Sched> {
    let mut it = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some(Sched {
        run_ns: it.next()??,
        wait_ns: it.next()??,
        slices: it.next()??,
    })
}

/// Something whose scheduler statistics can be read: one thread of this
/// process, or every live thread of another process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// A thread of the benchmark process (a fabric node or the leader).
    Thread(u32),
    /// A whole child process (a `ring-server`).
    Process(u32),
}

impl Unit {
    /// Current scheduler statistics; zeros once the unit has exited.
    pub fn sched(self) -> Sched {
        match self {
            Unit::Thread(tid) => fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))
                .ok()
                .and_then(|s| parse_schedstat(&s))
                .unwrap_or_default(),
            Unit::Process(pid) => thread_ids(pid)
                .into_iter()
                .filter_map(|tid| {
                    fs::read_to_string(format!("/proc/{pid}/task/{tid}/schedstat")).ok()
                })
                .filter_map(|s| parse_schedstat(&s))
                .fold(Sched::default(), Sched::plus),
        }
    }
}

fn numeric_entries(dir: &str) -> Vec<u32> {
    let mut ids: Vec<u32> = fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse().ok())
        .collect();
    ids.sort_unstable();
    ids
}

/// Thread ids of process `pid`, ascending (the kernel hands out ids in
/// increasing order, so ascending is spawn order short of a wrap).
pub fn thread_ids(pid: u32) -> Vec<u32> {
    numeric_entries(&format!("/proc/{pid}/task"))
}

/// The calling thread's id.
pub fn current_thread_id() -> Option<u32> {
    let link = fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// Live children of this process with their command lines, ascending
/// by pid.
pub fn child_processes() -> Vec<(u32, Vec<String>)> {
    let me = std::process::id();
    numeric_entries("/proc")
        .into_iter()
        .filter(|&pid| {
            fs::read_to_string(format!("/proc/{pid}/stat"))
                .ok()
                .and_then(|s| parse_process_stat(&s))
                .is_some_and(|(ppid, _)| ppid == me)
        })
        .filter_map(|pid| {
            let raw = fs::read(format!("/proc/{pid}/cmdline")).ok()?;
            let args = raw
                .split(|&b| b == 0)
                .filter(|a| !a.is_empty())
                .map(|a| String::from_utf8_lossy(a).into_owned())
                .collect();
            Some((pid, args))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_cpu_sums_eight_states_and_reads_steal() {
        let stat = "cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        let cpu = parse_host_cpu(stat).unwrap();
        assert_eq!(cpu.steal, 35);
        assert_eq!(cpu.total, 1000);
    }

    #[test]
    fn steal_frac_is_share_of_elapsed_cpu_time() {
        let a = HostCpu {
            steal: 10,
            total: 1000,
        };
        let b = HostCpu {
            steal: 40,
            total: 1300,
        };
        assert!((steal_frac(a, b) - 0.1).abs() < 1e-12);
        assert_eq!(steal_frac(a, a), 0.0);
    }

    #[test]
    fn process_stat_survives_hostile_command_names() {
        let stat = "42 (a) b) (c) S 7 42 42 0 -1 0 0 0 0 0 3 4 5 6 20 0 1 0 1 1 1";
        assert_eq!(parse_process_stat(stat), Some((7, 70_000.0)));
    }

    #[test]
    fn schedstat_parses_and_differences() {
        let a = parse_schedstat("100 20 3\n").unwrap();
        let b = parse_schedstat("250 50 7\n").unwrap();
        assert_eq!(
            b.since(a),
            Sched {
                run_ns: 150,
                wait_ns: 30,
                slices: 4
            }
        );
        assert!(parse_schedstat("1 2").is_none());
    }

    #[test]
    fn own_process_is_readable() {
        assert!(process_cpu_us(std::process::id()).is_some());
        let tid = current_thread_id().unwrap();
        assert!(thread_ids(std::process::id()).contains(&tid));
    }
}
