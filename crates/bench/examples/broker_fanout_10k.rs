//! 10 000-subscriber fan-out demo on the event-driven broker I/O plane.
//!
//! Connects a herd of wildcard subscribers (default 10 000), multiplexed
//! onto a handful of client-side sweep threads, publishes a few mid-size
//! containers, and reports the publisher-visible Ack latency, the
//! publish → all-delivered latency and the process OS-thread count — the
//! point being that the last number is O(writer pool + reader pool), not
//! O(subscribers).
//!
//! Run with: `cargo run --release -p pbcd_bench --example broker_fanout_10k`
//!
//! Scaling knobs (environment):
//! * `FANOUT_SUBS` — subscriber count (default 10000; clamped to what the
//!   process fd limit allows, ~4 fds per subscriber)
//! * `FANOUT_ROUNDS` — publishes to measure (default 5)
//! * `FANOUT_SWEEP_THREADS` — client-side sweep threads (default 4)

use pbcd_bench::{fanout_container, FanoutHerd};
use pbcd_net::{Broker, BrokerClient, BrokerConfig, PeerRole};
use std::time::{Duration, Instant};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Soft `RLIMIT_NOFILE` per `/proc/self/limits`; `None` off Linux.
fn open_files_limit() -> Option<u64> {
    std::fs::read_to_string("/proc/self/limits")
        .ok()?
        .lines()
        .find(|l| l.starts_with("Max open files"))?
        .split_whitespace()
        .nth(3)?
        .parse()
        .ok()
}

/// Live OS threads in this process per `/proc/self/status`.
fn os_threads() -> Option<usize> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))?
        .trim()
        .parse()
        .ok()
}

fn main() {
    let requested = env_usize("FANOUT_SUBS", 10_000);
    let rounds = env_usize("FANOUT_ROUNDS", 5).max(1);
    let sweep_threads = env_usize("FANOUT_SWEEP_THREADS", 4).max(1);

    // Each subscription costs ~4 fds in this process (client socket plus
    // the broker's connection entry, pool slot dup and reader adoption),
    // so clamp the herd to the fd budget instead of dying mid-connect.
    let subs = match open_files_limit() {
        Some(limit) => {
            let affordable = ((limit.saturating_sub(256)) / 4) as usize;
            if affordable < requested {
                println!(
                    "fd limit {limit}: clamping {requested} -> {affordable} subscribers \
                     (raise `ulimit -n` for the full run)"
                );
            }
            requested.min(affordable.max(1))
        }
        None => requested,
    };

    let broker = Broker::bind_with(
        "127.0.0.1:0",
        BrokerConfig {
            max_connections: subs + 64,
            subscriber_queue: rounds + 8,
            write_timeout: Some(Duration::from_secs(30)),
            ..BrokerConfig::default()
        },
    )
    .expect("bind broker");
    let pool = broker.metrics();
    let writers = pool.gauge("broker_writer_pool_threads").unwrap_or(0);
    let readers = pool.gauge("broker_reader_pool_threads").unwrap_or(0);
    println!(
        "broker up at {} — writer pool {writers}, reader pool {readers}",
        broker.addr()
    );

    let t = Instant::now();
    let herd = FanoutHerd::connect(broker.addr(), subs, sweep_threads);
    println!(
        "{subs} subscribers connected in {:.2} s ({sweep_threads} sweep threads client-side)",
        t.elapsed().as_secs_f64()
    );
    if let Some(threads) = os_threads() {
        println!(
            "process OS threads with {subs} live subscriptions: {threads} \
             (thread-per-connection would need ~{})",
            2 * subs
        );
    }

    let mut publisher =
        BrokerClient::connect(broker.addr(), PeerRole::Publisher).expect("publisher connects");
    let mut container = fanout_container();
    let bytes = container.size_bytes();
    let mut expected = 0u64;
    let mut ack_total = Duration::ZERO;
    let mut ack_max = Duration::ZERO;
    let mut delivered_total = Duration::ZERO;
    for round in 0..rounds {
        container.epoch = (round + 1) as u64;
        let t = Instant::now();
        publisher.publish(&container).expect("publish");
        let ack = t.elapsed();
        ack_total += ack;
        ack_max = ack_max.max(ack);
        expected += subs as u64;
        assert!(
            herd.wait_delivered(expected, Duration::from_secs(300)),
            "deliveries stalled at round {round}"
        );
        delivered_total += t.elapsed();
    }
    let ack_avg = ack_total / rounds as u32;
    let delivered_avg = delivered_total / rounds as u32;
    println!(
        "{rounds} publishes of {bytes} B to {subs} subscribers:\n\
         \x20 publish ack   avg {:>9.3} ms, max {:>9.3} ms (enqueue-bounded)\n\
         \x20 all delivered avg {:>9.3} ms ({:.1} MB/s fan-out)",
        ack_avg.as_secs_f64() * 1e3,
        ack_max.as_secs_f64() * 1e3,
        delivered_avg.as_secs_f64() * 1e3,
        (bytes * subs) as f64 / delivered_avg.as_secs_f64() / 1e6,
    );

    drop(publisher);
    herd.shutdown();
    broker.shutdown();
    println!("clean shutdown: pools joined, sockets closed");
}
