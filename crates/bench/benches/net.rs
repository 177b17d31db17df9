//! Network-plane benchmarks on loopback TCP.
//!
//! * `net_broker_fanout` — broker fan-out throughput vs. subscriber count
//!   (1 → 256): one pre-encrypted container published repeatedly, every
//!   connected subscriber confirming receipt before the iteration ends.
//!   No crypto in the loop — the broker never does any — so the numbers
//!   are pure framing + queue fan-out.
//! * `net_broker_fanout_pooled` — the large tiers (256 → 4096) against
//!   the event-driven broker I/O plane, with the subscribers multiplexed
//!   onto a few client-side sweep threads (`pbcd_bench::FanoutHerd`) so
//!   the measuring process does not itself pay a thread per subscriber.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pbcd_bench::{fanout_container, FanoutHerd};
use pbcd_net::{Broker, BrokerClient, BrokerConfig, PeerRole};
use std::sync::mpsc;
use std::time::Duration;

fn bench_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("net_broker_fanout");
    group.sample_size(10);
    let container = fanout_container();
    let size = container.size_bytes();

    for subs in [1usize, 4, 16, 64, 256] {
        let broker = Broker::bind("127.0.0.1:0").expect("bind bench broker");
        let addr = broker.addr();
        let (ready_tx, ready_rx) = mpsc::channel();
        let (got_tx, got_rx) = mpsc::channel();
        let threads: Vec<_> = (0..subs)
            .map(|_| {
                let ready = ready_tx.clone();
                let got = got_tx.clone();
                std::thread::spawn(move || {
                    let mut client = BrokerClient::connect(addr, PeerRole::Subscriber)
                        .expect("subscriber connects");
                    client.subscribe::<&str>(&[]).expect("subscribe");
                    ready.send(()).expect("main alive");
                    while client.next_delivery().is_ok() {
                        if got.send(()).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();
        for _ in 0..subs {
            ready_rx.recv().expect("subscriber ready");
        }
        let mut publisher =
            BrokerClient::connect(addr, PeerRole::Publisher).expect("publisher connects");

        group.throughput(Throughput::Bytes((size * subs) as u64));
        group.bench_with_input(BenchmarkId::new("subscribers", subs), &subs, |b, &subs| {
            b.iter(|| {
                publisher.publish(&container).expect("publish");
                for _ in 0..subs {
                    got_rx.recv().expect("delivery confirmed");
                }
            })
        });

        drop(publisher);
        broker.shutdown();
        drop(got_rx);
        for t in threads {
            let _ = t.join();
        }
    }
    group.finish();
}

fn bench_fanout_pooled(c: &mut Criterion) {
    let mut group = c.benchmark_group("net_broker_fanout_pooled");
    group.sample_size(10);
    let container = fanout_container();
    let size = container.size_bytes();

    for subs in [256usize, 1024, 4096] {
        let broker = Broker::bind_with(
            "127.0.0.1:0",
            BrokerConfig {
                max_connections: subs + 64,
                subscriber_queue: 64,
                write_timeout: Some(Duration::from_secs(30)),
                ..BrokerConfig::default()
            },
        )
        .expect("bind bench broker");
        let herd = FanoutHerd::connect(broker.addr(), subs, 4);
        let mut publisher =
            BrokerClient::connect(broker.addr(), PeerRole::Publisher).expect("publisher connects");

        // Delivery confirmation is a cumulative frame count across the
        // herd, so each iteration waits for `subs` more deliveries.
        let mut expected = herd.delivered();
        group.throughput(Throughput::Bytes((size * subs) as u64));
        group.bench_with_input(BenchmarkId::new("subscribers", subs), &subs, |b, &subs| {
            b.iter(|| {
                publisher.publish(&container).expect("publish");
                expected += subs as u64;
                assert!(
                    herd.wait_delivered(expected, Duration::from_secs(120)),
                    "herd deliveries stalled"
                );
            })
        });

        drop(publisher);
        herd.shutdown();
        broker.shutdown();
    }
    group.finish();
}

criterion_group!(benches, bench_fanout, bench_fanout_pooled);
criterion_main!(benches);
