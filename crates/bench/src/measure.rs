//! Latency and throughput measurement utilities.

use std::time::{Duration, Instant};

use ring_kvs::proto::Msg;
use ring_kvs::{Cluster, RingClient};
use ring_net::Transport;

/// Median, 90th and 99th percentile; p50/p90 are what Section 6
/// reports, p99 feeds the tail-latency tracking.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct LatencySummary {
    /// Median latency in microseconds.
    pub median_us: f64,
    /// 90th-percentile latency in microseconds.
    pub p90_us: f64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Summarises a sample set into median, p90 and p99.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn summarize(mut samples: Vec<Duration>) -> LatencySummary {
    assert!(!samples.is_empty(), "no samples collected");
    samples.sort_unstable();
    let q = |f: f64| -> f64 {
        let idx = ((samples.len() - 1) as f64 * f).round() as usize;
        samples[idx].as_secs_f64() * 1e6
    };
    LatencySummary {
        median_us: q(0.5),
        p90_us: q(0.9),
        p99_us: q(0.99),
        samples: samples.len(),
    }
}

/// Times `op(i)` for `i` in `0..reps` and summarises the samples.
fn time_each(reps: usize, mut op: impl FnMut(usize)) -> LatencySummary {
    let mut samples = Vec::with_capacity(reps);
    for i in 0..reps {
        let t0 = Instant::now();
        op(i);
        samples.push(t0.elapsed());
    }
    summarize(samples)
}

/// Measures put latency into `memgest` for objects of `size` bytes.
/// Each repetition writes a distinct key (fresh heap range, as in an
/// insert-heavy workload).
pub fn put_latency<T: Transport<Msg>>(
    client: &mut RingClient<T>,
    memgest: u32,
    size: usize,
    reps: usize,
    key_base: u64,
) -> LatencySummary {
    let value = vec![0xABu8; size];
    time_each(reps, |i| {
        let key = key_base + i as u64;
        client
            .put_to(key, &value, memgest)
            .expect("put during benchmark");
    })
}

/// Measures get latency for pre-loaded keys.
pub fn get_latency<T: Transport<Msg>>(
    client: &mut RingClient<T>,
    keys: &[u64],
    reps: usize,
) -> LatencySummary {
    time_each(reps, |i| {
        client
            .get(keys[i % keys.len()])
            .expect("get during benchmark");
    })
}

/// Measures move latency from `src` to `dst` for objects of `size`
/// bytes. Each repetition uses a fresh key pre-loaded into `src`.
pub fn move_latency<T: Transport<Msg>>(
    client: &mut RingClient<T>,
    src: u32,
    dst: u32,
    size: usize,
    reps: usize,
    key_base: u64,
) -> LatencySummary {
    let value = vec![0xCDu8; size];
    for i in 0..reps {
        client
            .put_to(key_base + i as u64, &value, src)
            .expect("preload");
    }
    time_each(reps, |i| {
        let key = key_base + i as u64;
        client.move_key(key, dst).expect("move during benchmark");
    })
}

/// One second of an open-loop throughput trace.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct ThroughputSample {
    /// Seconds since the trace started.
    pub second: f64,
    /// Number of concurrent clients during this interval.
    pub clients: usize,
    /// Completed requests per second.
    pub completed_per_sec: f64,
}

/// Runs an open-loop put workload: every `interval` another client
/// joins, each offering `offered_per_client` requests/second, up to
/// `max_clients`; completions are counted per interval.
///
/// Each client drives the pipelined (`put_nb`/`poll`) API with a deep
/// window, so offered requests ride the fabric concurrently instead of
/// one at a time. Matches the Figure 9 methodology with the absolute
/// rate scaled to the simulated fabric.
pub fn ramp_throughput(
    cluster: &Cluster,
    memgest: u32,
    value_size: usize,
    offered_per_client: f64,
    max_clients: usize,
    interval: Duration,
) -> Vec<ThroughputSample> {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    let stop = Arc::new(AtomicBool::new(false));
    let completed = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    let mut samples = Vec::new();
    let t0 = Instant::now();

    for joined in 1..=max_clients {
        // Launch the next client.
        let mut client = cluster.client();
        let stop_c = Arc::clone(&stop);
        let done_c = Arc::clone(&completed);
        let value = vec![0x42u8; value_size];
        let key_base = joined as u64 * 10_000_000;
        handles.push(std::thread::spawn(move || {
            // Sleep-paced open loop over the pipelined client: send the
            // requests that became due, drain completions, then yield
            // the CPU — client threads must not starve the
            // single-threaded servers. The failover timeout is raised so
            // queueing under overload is measured as latency, not
            // amplified into retry traffic.
            let gap = Duration::from_secs_f64(1.0 / offered_per_client);
            let cap = 256usize;
            client.set_window(cap);
            client.set_timeout(Duration::from_secs(2));
            let mut next = Instant::now();
            let mut key = key_base;
            while !stop_c.load(Ordering::Relaxed) {
                let now = Instant::now();
                while next <= now && client.in_flight() < cap {
                    if client.put_nb(key, &value, Some(memgest)).is_ok() {
                        key += 1;
                    }
                    next += gap;
                }
                if now > next + Duration::from_millis(50) {
                    next = now; // Don't accumulate unbounded debt.
                }
                let done = client.poll().len();
                done_c.fetch_add(done as u64, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(500));
            }
        }));

        // Sample completions over this interval.
        let start_count = completed.load(Ordering::Relaxed);
        let interval_start = Instant::now();
        std::thread::sleep(interval);
        let elapsed = interval_start.elapsed().as_secs_f64();
        let done = completed.load(Ordering::Relaxed) - start_count;
        samples.push(ThroughputSample {
            second: t0.elapsed().as_secs_f64(),
            clients: joined,
            completed_per_sec: done as f64 / elapsed,
        });
    }

    stop.store(true, Ordering::Relaxed);
    for h in handles {
        let _ = h.join();
    }
    samples
}

/// Closed-loop throughput with a bounded pipeline: issues YCSB ops from
/// the generator for `duration`, keeping up to `window` requests in
/// flight on the pipelined client, and returns completed
/// requests/second.
pub fn mixed_throughput(
    cluster: &Cluster,
    memgest: u32,
    gen: &mut ring_workload::WorkloadGen,
    duration: Duration,
    window: usize,
) -> f64 {
    let mut client = cluster.client();
    let value = vec![0x24u8; gen.spec().value_len];

    // Preload every key so gets always hit.
    for op in gen.load_phase().collect::<Vec<_>>() {
        client
            .put_to(op.key(), &value, memgest)
            .expect("preload put");
    }

    client.set_window(window);
    let t0 = Instant::now();
    let mut done = 0u64;
    while t0.elapsed() < duration {
        while client.in_flight() < window {
            let op = gen.next_op();
            let ok = match op {
                ring_workload::Op::Get { key } => client.get_nb(key).is_ok(),
                ring_workload::Op::Put { key, .. } => {
                    client.put_nb(key, &value, Some(memgest)).is_ok()
                }
            };
            if !ok {
                break;
            }
        }
        let completed = client.poll().len();
        done += completed as u64;
        if completed == 0 {
            // Let the server threads run (the host may have few cores).
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    // Drain the tail (retries bound how long a straggler can take).
    done += client.drain().len() as u64;
    done as f64 / t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_percentiles() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        let s = summarize(samples);
        assert!((s.median_us - 51.0).abs() <= 1.0, "median {}", s.median_us);
        assert!((s.p90_us - 90.0).abs() <= 1.5, "p90 {}", s.p90_us);
        assert!((s.p99_us - 99.0).abs() <= 1.5, "p99 {}", s.p99_us);
        assert_eq!(s.samples, 100);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn summarize_empty_panics() {
        let _ = summarize(Vec::new());
    }
}
