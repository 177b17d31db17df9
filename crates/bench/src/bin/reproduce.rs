//! Regenerates every table and figure of the paper's evaluation (§VII),
//! plus the `ablation-*` targets below; the GKM ones drive the reproduction
//! surface that `docs/ARCHITECTURE.md`, "The GKM seam", names.
//!
//! Usage:
//!   reproduce [--quick] [table2|fig2|fig3|fig4|fig5|fig6|
//!              ablation-gkm|ablation-group|ablation-shard|ablation-batch|
//!              ablation-dominance|bench-json|all]
//!
//! Anything else on the command line is an error (exit status 2).
//!
//! `--quick` shrinks round counts and sweep ranges for smoke runs; the
//! default settings mirror the paper's parameters (50 OCBE rounds, N up to
//! 1000, 25%–100% fills).
//!
//! `bench-json` measures the group-arithmetic substrate (fixed-base,
//! wNAF/window, Straus, Pippenger MSM, the shared-scalar and shared-base
//! list primitives, Pedersen, Schnorr incl. batched RLC verification —
//! optimized *and* naive baselines — and GE-OCBE compose/open at ℓ = 48)
//! and writes
//! `BENCH_group_ops.json` (`op → ns/iter`) to the current directory, so
//! the perf trajectory is tracked in-repo per PR — and the network plane
//! (broker fan-out publish latency incl. a stalled subscriber, batched
//! vs sequential registration throughput, first-request latency) into
//! `BENCH_net.json`. It is **not** part of `all`: the JSONs are committed
//! deliberately, from a full (non-quick) run.

use pbcd_bench::{
    bench_rng, eq_steps, ge_round, ge_steps, gkm_workload, ms, naive_chacha20, naive_crc32,
    naive_poly1305, print_row, time_avg, NaiveAcv, NaiveAead,
};
use pbcd_crypto::{chacha20_xor, poly1305, AuthKey, NONCE_LEN};
use pbcd_gkm::{AcvBgkm, MarkerGkm, SecureLockGkm, ShardedAcvBgkm, SimplisticGkm};
use pbcd_group::{challenge, verify_batch, CyclicGroup, ModpGroup, P256Group, SigningKey};
use pbcd_math::{FpCtx, Matrix};
use rand::rngs::StdRng;
use std::time::{Duration, Instant};

struct Opts {
    quick: bool,
}

/// The ACV row function, named under every figure that times it: it departs
/// from the paper's per-entry hash (`AcvBgkm::derive_key` documents it).
const ROW_FUNCTION: &str =
    "row function: a_ij from one ChaCha20 keystream per row, keyed by SHA-256(css || z_1..z_N) (the paper: H(css || z_j) per entry)";

/// Every target `main` knows how to run.
const TARGETS: [&str; 13] = [
    "table2",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "ablation-gkm",
    "ablation-group",
    "ablation-shard",
    "ablation-batch",
    "ablation-dominance",
    "bench-json",
    "all",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = args
        .iter()
        .find(|a| *a != "--quick" && !TARGETS.contains(&a.as_str()))
    {
        eprintln!(
            "reproduce: unknown argument {unknown:?}\nusage: reproduce [--quick] [{}]",
            TARGETS.join("|")
        );
        std::process::exit(2);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let opts = Opts { quick };
    let targets: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let all = targets.is_empty() || targets.contains(&"all");
    let want = |t: &str| all || targets.contains(&t);

    println!("PBCD reproduction harness (paper: Shang et al., ICDE 2010)");
    println!(
        "mode: {}\n",
        if opts.quick {
            "quick"
        } else {
            "full (paper parameters)"
        }
    );

    if want("table2") {
        table2(&opts);
    }
    if want("fig2") {
        fig2(&opts);
    }
    if want("fig3") || want("fig4") || want("fig5") {
        fig345(&opts, want("fig3"), want("fig4"), want("fig5"));
    }
    if want("fig6") {
        fig6(&opts);
    }
    if want("ablation-gkm") {
        ablation_gkm(&opts);
    }
    if want("ablation-group") {
        ablation_group(&opts);
    }
    if want("ablation-shard") {
        ablation_shard(&opts);
    }
    if want("ablation-batch") {
        ablation_batch(&opts);
    }
    if want("ablation-dominance") {
        ablation_dominance(&opts);
    }
    // Deliberate opt-in (not in `all`): writes BENCH_group_ops.json and
    // BENCH_net.json.
    if targets.contains(&"bench-json") {
        bench_json(&opts);
        bench_net_json(&opts);
    }
}

/// Live OS threads in this process per the kernel (`/proc/self/status`);
/// `None` off Linux.
fn os_thread_count() -> Option<usize> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))?
        .trim()
        .parse()
        .ok()
}

/// Measures the network dissemination/registration plane on loopback TCP
/// and writes `BENCH_net.json`:
///
/// * broker publish round-trip (Ack latency) vs subscriber count, with
///   every subscriber confirming receipt out-of-band — and the same
///   measurement with one **stalled** subscriber attached, which under
///   per-subscriber writer queues must not move the number (enqueue-time
///   isolation; pre-queue fan-out coupled it to `write_timeout`);
/// * the pooled fan-out tiers — 256/1024/4096 subscribers multiplexed
///   through a client-side [`pbcd_bench::FanoutHerd`] against the
///   event-driven broker I/O plane — plus `os_threads_at_1k_subs`, the
///   process thread count with 1024 live subscriptions;
/// * the same fan-out with the durable retention log enabled (fsync off)
///   — the `persist_*` entries — plus the raw per-record append cost and
///   the startup recovery scan over the full log;
/// * full oblivious EQ-registration through `pbcd_net::direct`: one
///   `RegisterBatch` frame of 16 and of 64 items vs the same items as
///   single round-trips, in alternating pairs, and the first request on a
///   fresh connection;
/// * the relay overlay: publish → all-edge-delivery latency through a
///   1-origin/4-edge tree at the same total subscriber count as the flat
///   fan-out (the delta is the cost of one relay hop), and the
///   log-backed cold-start rate (records/s) for a late-attached edge.
fn bench_net_json(opts: &Opts) {
    use pbcd_net::{
        Broker, BrokerClient, BrokerConfig, ConfigSummary, FsyncPolicy, PeerRole,
        RegistrationServer, RetentionStore,
    };
    use std::sync::{mpsc, Arc};

    let rounds = if opts.quick { 3 } else { 50 };
    println!("== bench-json: network plane (avg over {rounds} rounds) ==");
    let ns = |d: Duration| d.as_secs_f64() * 1e9;
    let mut entries: Vec<(String, f64)> = Vec::new();

    // Same container as the `broker_fanout_10k` example — one definition,
    // so the two measurements cannot silently diverge.
    let container = pbcd_bench::fanout_container();

    // One measurement routine for every broker configuration (in-memory
    // and durable), so the persist_* overhead numbers compare
    // like-for-like against the same code path.
    let measure_fanout = |config: BrokerConfig, subs: usize, stalled: bool| {
        let broker = Broker::bind_with("127.0.0.1:0", config).expect("bind broker");
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
        // The stalled peer subscribes and then never reads: its queue
        // fills, its socket jams — and the publish numbers must not
        // notice.
        let _stalled_client = stalled.then(|| {
            let mut c =
                BrokerClient::connect(addr, PeerRole::Subscriber).expect("stalled connects");
            c.subscribe::<&str>(&[]).expect("stalled subscribe");
            c
        });
        let mut publisher =
            BrokerClient::connect(addr, PeerRole::Publisher).expect("publisher connects");
        let mut publish_total = Duration::ZERO;
        let mut delivered_total = Duration::ZERO;
        // Per-round ack RTTs also land in a telemetry histogram, so the
        // JSON carries real percentiles, not just the mean.
        let ack_hist = pbcd_telemetry::Registry::new().histogram("ack_ns");
        let mut c = container.clone();
        for round in 0..rounds {
            c.epoch = (round + 2) as u64;
            let t = Instant::now();
            publisher.publish(&c).expect("publish");
            ack_hist.record_since(t);
            publish_total += t.elapsed();
            for _ in 0..subs {
                got_rx.recv().expect("delivery confirmed");
            }
            delivered_total += t.elapsed();
        }
        drop(publisher);
        broker.shutdown();
        drop(got_rx);
        for t in threads {
            let _ = t.join();
        }
        (
            publish_total / rounds as u32,
            delivered_total / rounds as u32,
            ack_hist.snapshot(),
        )
    };
    let base_config = || BrokerConfig {
        write_timeout: Some(Duration::from_secs(30)),
        subscriber_queue: rounds + 8,
        ..BrokerConfig::default()
    };

    // --- broker fan-out: publish Ack latency + full-delivery latency ---
    let sub_counts: &[usize] = if opts.quick { &[4] } else { &[16, 64] };
    for &subs in sub_counts {
        for stalled in [false, true] {
            let (publish_avg, delivered_avg, ack) = measure_fanout(base_config(), subs, stalled);
            let label = if stalled { "_with_stalled" } else { "" };
            println!(
                "fanout subs={subs}{label}: publish ack {:>10.0} ns (p50 {} p99 {}), all delivered {:>10.0} ns",
                ns(publish_avg),
                ack.p50,
                ack.p99,
                ns(delivered_avg)
            );
            entries.push((
                format!("fanout_{subs}{label}_publish_ack_ns"),
                ns(publish_avg),
            ));
            for (q, v) in [("p50", ack.p50), ("p90", ack.p90), ("p99", ack.p99)] {
                entries.push((format!("fanout_{subs}{label}_publish_ack_{q}_ns"), v as f64));
            }
            entries.push((
                format!("fanout_{subs}{label}_all_delivered_ns"),
                ns(delivered_avg),
            ));
        }
    }

    // --- event-driven I/O plane: pooled fan-out tiers ---
    // 256 → 4096 subscribers, multiplexed client-side onto a few herd
    // sweep threads (thread-per-subscriber clients stop scaling long
    // before the broker does). The scaling claims: publish-ack latency
    // grows sub-linearly from the 64-subscriber tier to 1024 (fan-out is
    // an enqueue per subscriber, not a write), and the broker runs O(pool)
    // OS threads at 1k subscribers, not O(subscribers) — recorded as
    // `os_threads_at_1k_subs` from `/proc/self/status` (herd sweep
    // threads included, so the number is an upper bound on the broker's).
    {
        let tiers: &[(usize, u32)] = if opts.quick {
            &[(32, 3)]
        } else {
            &[(256, 20), (1024, 10), (4096, 5)]
        };
        for &(subs, tier_rounds) in tiers {
            let broker = Broker::bind_with(
                "127.0.0.1:0",
                BrokerConfig {
                    max_connections: subs + 64,
                    subscriber_queue: tier_rounds as usize + 8,
                    ..base_config()
                },
            )
            .expect("bind pooled-tier broker");
            let herd = pbcd_bench::FanoutHerd::connect(broker.addr(), subs, 4);
            let mut publisher = BrokerClient::connect(broker.addr(), PeerRole::Publisher)
                .expect("publisher connects");
            let mut publish_total = Duration::ZERO;
            let mut delivered_total = Duration::ZERO;
            let mut expected = 0u64;
            let mut c = container.clone();
            for round in 0..tier_rounds {
                c.epoch = (round + 2) as u64;
                let t = Instant::now();
                publisher.publish(&c).expect("publish");
                publish_total += t.elapsed();
                expected += subs as u64;
                assert!(
                    herd.wait_delivered(expected, Duration::from_secs(120)),
                    "pooled tier subs={subs} round={round}: deliveries stalled"
                );
                delivered_total += t.elapsed();
            }
            if subs == 1024 {
                if let Some(threads) = os_thread_count() {
                    println!("os threads at 1k subscribers: {threads}");
                    entries.push(("os_threads_at_1k_subs".into(), threads as f64));
                }
            }
            drop(publisher);
            herd.shutdown();
            broker.shutdown();
            let publish_avg = publish_total / tier_rounds;
            let delivered_avg = delivered_total / tier_rounds;
            println!(
                "fanout subs={subs} (pooled herd): publish ack {:>10.0} ns, all delivered {:>10.0} ns",
                ns(publish_avg),
                ns(delivered_avg)
            );
            entries.push((format!("fanout_{subs}_publish_ack_ns"), ns(publish_avg)));
            entries.push((format!("fanout_{subs}_all_delivered_ns"), ns(delivered_avg)));
        }
    }

    // --- durable retention: the same fan-out with the log enabled ---
    // The acceptance target: fsync-off durable publish-ack stays within
    // 2x of the in-memory broker (the append is one buffered write under
    // the state lock, before Ack).
    let scratch = |tag: &str| {
        std::env::temp_dir().join(format!("pbcd-bench-{tag}-{}.log", std::process::id()))
    };
    for &subs in sub_counts {
        let path = scratch(&format!("fanout-{subs}"));
        let _ = std::fs::remove_file(&path);
        let (publish_avg, delivered_avg, _) = measure_fanout(
            BrokerConfig {
                store_path: Some(path.clone()),
                fsync: FsyncPolicy::Off,
                ..base_config()
            },
            subs,
            false,
        );
        let _ = std::fs::remove_file(&path);
        println!(
            "persist fanout subs={subs}: publish ack {:>10.0} ns, all delivered {:>10.0} ns",
            ns(publish_avg),
            ns(delivered_avg)
        );
        entries.push((
            format!("persist_fanout_{subs}_publish_ack_ns"),
            ns(publish_avg),
        ));
        entries.push((
            format!("persist_fanout_{subs}_all_delivered_ns"),
            ns(delivered_avg),
        ));
    }

    // --- durable retention, interval fsync: the middle policy ---
    // `Interval` bounds the power-loss window without an fsync per
    // publish; its publish-ack cost should sit between fsync-off and
    // per-publish. One fan-out width is enough to place it.
    {
        let subs = sub_counts[0];
        let path = scratch(&format!("fanout-interval-{subs}"));
        let _ = std::fs::remove_file(&path);
        let (publish_avg, delivered_avg, _) = measure_fanout(
            BrokerConfig {
                store_path: Some(path.clone()),
                fsync: FsyncPolicy::Interval(Duration::from_millis(50)),
                ..base_config()
            },
            subs,
            false,
        );
        let _ = std::fs::remove_file(&path);
        println!(
            "persist fanout subs={subs} fsync=50ms: publish ack {:>10.0} ns, all delivered {:>10.0} ns",
            ns(publish_avg),
            ns(delivered_avg)
        );
        entries.push((
            format!("persist_fsync_interval_{subs}_publish_ack_ns"),
            ns(publish_avg),
        ));
        entries.push((
            format!("persist_fsync_interval_{subs}_all_delivered_ns"),
            ns(delivered_avg),
        ));
    }

    // --- telemetry recording cost: the per-event price of the registry ---
    // One histogram record is the unit the broker hot path pays per
    // publish/delivery; it must be nanoseconds, not microseconds.
    {
        let iters = if opts.quick { 10_000u64 } else { 1_000_000 };
        let registry = pbcd_telemetry::Registry::new();
        let h = registry.histogram("bench_record_ns");
        let t = Instant::now();
        for i in 0..iters {
            h.record(i);
        }
        let per_record = t.elapsed().as_secs_f64() * 1e9 / iters as f64;
        assert_eq!(h.snapshot().count, iters);
        println!("telemetry: histogram record {per_record:>10.1} ns/event");
        entries.push(("telemetry_record_ns".into(), per_record));
    }

    // --- retention log: raw append overhead + recovery scan time ---
    // Append `records` epochs to a bare store (fsync off), then reopen it
    // and time the recovery scan over the full log.
    {
        let records = if opts.quick { 16u64 } else { 256 };
        let path = scratch("store");
        let _ = std::fs::remove_file(&path);
        let mut store =
            RetentionStore::open(&path, 1, u64::MAX, FsyncPolicy::Off).expect("open store");
        // Pre-encode one body per epoch so the timed loop is the append
        // alone, not container serialization.
        let batch: Vec<(ConfigSummary, Arc<Vec<u8>>)> = (1..=records)
            .map(|epoch| {
                let mut c = container.clone();
                c.epoch = epoch;
                let body = pbcd_net::frame::deliver_body(&c.encode().expect("container encodes"));
                let summary = ConfigSummary {
                    document_name: c.document_name.clone(),
                    epoch,
                    config_ids: c.groups.iter().map(|g| g.config_id).collect(),
                    size_bytes: (body.len() - 4) as u64,
                };
                (summary, Arc::new(body))
            })
            .collect();
        let t = Instant::now();
        for (summary, body) in batch {
            store.retain(summary, body).expect("retain");
        }
        let append_avg = t.elapsed() / records as u32;
        store.sync().expect("sync");
        drop(store);
        let t = Instant::now();
        let store =
            RetentionStore::open(&path, 1, u64::MAX, FsyncPolicy::Off).expect("reopen store");
        let recovery = t.elapsed();
        assert_eq!(store.recovery().records_recovered, records);
        drop(store);
        let _ = std::fs::remove_file(&path);
        println!(
            "retention log: append {:>10.0} ns/record, recovery of {records} records {:>10.0} ns",
            ns(append_avg),
            ns(recovery)
        );
        entries.push(("persist_append_ns".into(), ns(append_avg)));
        entries.push((
            format!("persist_recovery_{records}_records_ns"),
            ns(recovery),
        ));
    }

    // --- batched registration: one RegisterBatch frame vs the same n
    // items as single round-trips, over the same connection, service and
    // proofs. The verdict is the per-pair ratio (ROADMAP item 4), so the
    // two sides run in alternating pairs and host drift cancels; the
    // ops/s entries are context. ---
    let mut first_request = None;
    for batch_n in [16usize, 64] {
        let (pairs, rounds) = if opts.quick { (1, 1) } else { (10, 4) };
        let (service, batch_req, singles) = pbcd_bench::registration_batch_workload(batch_n);
        service.reseed(1);
        let server = RegistrationServer::bind("127.0.0.1:0", move |req: &[u8]| service.handle(req))
            .expect("bind registration");
        let mut client =
            pbcd_net::RegistrationClient::connect(server.addr()).expect("connect batch client");
        // First response end-to-end from a fresh connection: with the
        // warm-up hook the comb tables are already built at bind time, so
        // this is pure protocol latency, not table construction.
        let t = Instant::now();
        let first = client.call(&singles[0]).expect("first call");
        first_request.get_or_insert(t.elapsed());
        assert!(!first.is_empty());
        // Warm the remaining per-thread state once, untimed.
        client.call(&batch_req).expect("warm batch");
        let mut timed = |requests: &[Vec<u8>]| {
            let t = Instant::now();
            for _ in 0..rounds {
                for request in requests {
                    let response = client.call(request).expect("registration call");
                    assert!(!response.is_empty());
                }
            }
            t.elapsed()
        };
        let cohort = std::slice::from_ref(&batch_req);
        let (mut sequential, mut batched) = (Duration::ZERO, Duration::ZERO);
        let mut ratios = Vec::with_capacity(pairs);
        for pair in 0..pairs {
            let (seq, bat) = if pair % 2 == 0 {
                let seq = timed(&singles);
                (seq, timed(cohort))
            } else {
                let bat = timed(cohort);
                (timed(&singles), bat)
            };
            ratios.push(seq.as_secs_f64() / bat.as_secs_f64());
            sequential += seq;
            batched += bat;
        }
        server.shutdown();
        ratios.sort_by(f64::total_cmp);
        let ops = (batch_n * rounds * pairs) as f64;
        let seq_rps = ops / sequential.as_secs_f64();
        let bat_rps = ops / batched.as_secs_f64();
        println!(
            "registration batch={batch_n}: sequential {seq_rps:>8.0} ops/s, batched {bat_rps:>8.0} ops/s; \
             ratio over {pairs} alternating pairs: median {:.2}x (min {:.2}, max {:.2})",
            (ratios[(pairs - 1) / 2] + ratios[pairs / 2]) / 2.0,
            ratios[0],
            ratios[pairs - 1]
        );
        entries.push((
            format!("registration_batch_sequential_{batch_n}_ops_per_s"),
            seq_rps,
        ));
        entries.push((format!("registration_batch_{batch_n}_ops_per_s"), bat_rps));
    }
    let first_request = first_request.expect("two batch sizes ran");
    println!("registration: first request {:>10.0} ns", ns(first_request));
    entries.push(("registration_first_request_ns".into(), ns(first_request)));

    // --- relay overlay: tree dissemination latency ---
    // A 1-origin/4-edge tree serving the same total subscriber count as
    // the flat fan-out above (`fanout_{subs}_all_delivered_ns` is the
    // direct comparison): every delivery now crosses one relay hop, so
    // the delta between the two entries is the price of federation.
    {
        use pbcd_net::RelayConfig;
        let edges_n = 4usize;
        let subs = sub_counts[0];
        let per_edge = (subs / edges_n).max(1);
        let total = per_edge * edges_n;
        let origin = Broker::bind_with(
            "127.0.0.1:0",
            BrokerConfig {
                relay: Some(RelayConfig {
                    accept_peers: false,
                    ..RelayConfig::new("origin")
                }),
                ..base_config()
            },
        )
        .expect("bind relay origin");
        let edges: Vec<_> = (0..edges_n)
            .map(|i| {
                let edge = Broker::bind_with(
                    "127.0.0.1:0",
                    BrokerConfig {
                        relay: Some(RelayConfig::new(format!("edge-{i}"))),
                        ..base_config()
                    },
                )
                .expect("bind relay edge");
                origin.add_peer(edge.addr().to_string()).expect("peer edge");
                edge
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(30);
        while origin.stats().relay_links < edges_n as u64 {
            assert!(Instant::now() < deadline, "relay links did not come up");
            std::thread::sleep(Duration::from_millis(10));
        }
        let (ready_tx, ready_rx) = mpsc::channel();
        let (got_tx, got_rx) = mpsc::channel();
        let mut threads = Vec::new();
        for edge in &edges {
            let addr = edge.addr();
            for _ in 0..per_edge {
                let ready = ready_tx.clone();
                let got = got_tx.clone();
                threads.push(std::thread::spawn(move || {
                    let mut client = BrokerClient::connect(addr, PeerRole::Subscriber)
                        .expect("edge subscriber connects");
                    client.subscribe::<&str>(&[]).expect("edge subscribe");
                    ready.send(()).expect("main alive");
                    while client.next_delivery().is_ok() {
                        if got.send(()).is_err() {
                            break;
                        }
                    }
                }));
            }
        }
        for _ in 0..total {
            ready_rx.recv().expect("edge subscriber ready");
        }
        let mut publisher =
            BrokerClient::connect(origin.addr(), PeerRole::Publisher).expect("publisher connects");
        let mut delivered_total = Duration::ZERO;
        let mut c = container.clone();
        for round in 0..rounds {
            c.epoch = (round + 2) as u64;
            let t = Instant::now();
            publisher.publish(&c).expect("publish");
            for _ in 0..total {
                got_rx.recv().expect("edge delivery confirmed");
            }
            delivered_total += t.elapsed();
        }
        drop(publisher);
        origin.shutdown();
        for edge in edges {
            edge.shutdown();
        }
        drop(got_rx);
        for t in threads {
            let _ = t.join();
        }
        let delivered_avg = delivered_total / rounds as u32;
        println!(
            "relay tree 1x{edges_n} subs={total}: publish → all edge deliveries {:>10.0} ns \
             (flat comparison: fanout_{total}_all_delivered_ns)",
            ns(delivered_avg)
        );
        entries.push((
            format!("relay_tree_1x{edges_n}_{total}_all_delivered_ns"),
            ns(delivered_avg),
        ));
    }

    // --- relay overlay: log-backed cold-start throughput ---
    // A durable origin retains `records` epochs, then a fresh edge
    // attaches: the time from `add_peer` to the edge holding every epoch
    // is the catch-up stream (one Relay frame + synchronous Ack per
    // record, snapshotted from the retention index).
    {
        use pbcd_net::RelayConfig;
        let records = if opts.quick { 16u64 } else { 256 };
        let path = scratch("relay-catchup");
        let _ = std::fs::remove_file(&path);
        let origin = Broker::bind_with(
            "127.0.0.1:0",
            BrokerConfig {
                store_path: Some(path.clone()),
                fsync: FsyncPolicy::Off,
                history_depth: records as usize,
                relay: Some(RelayConfig {
                    accept_peers: false,
                    ..RelayConfig::new("origin")
                }),
                ..base_config()
            },
        )
        .expect("bind durable origin");
        let mut publisher =
            BrokerClient::connect(origin.addr(), PeerRole::Publisher).expect("publisher connects");
        let mut c = container.clone();
        for epoch in 1..=records {
            c.epoch = epoch;
            publisher.publish(&c).expect("publish");
        }
        drop(publisher);
        let edge = Broker::bind_with(
            "127.0.0.1:0",
            BrokerConfig {
                history_depth: records as usize,
                relay: Some(RelayConfig::new("edge")),
                ..base_config()
            },
        )
        .expect("bind late edge");
        let t = Instant::now();
        origin.add_peer(edge.addr().to_string()).expect("peer edge");
        let deadline = Instant::now() + Duration::from_secs(60);
        while edge.stats().relays_accepted < records {
            assert!(Instant::now() < deadline, "catch-up did not converge");
            std::thread::yield_now();
        }
        let elapsed = t.elapsed();
        let rps = records as f64 / elapsed.as_secs_f64();
        origin.shutdown();
        edge.shutdown();
        let _ = std::fs::remove_file(&path);
        println!(
            "relay catch-up: {records} records in {:>10.0} ns ({rps:>8.0} records/s)",
            ns(elapsed)
        );
        entries.push(("relay_catch_up_records_per_s".into(), rps));
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::from("{\n  \"schema\": \"pbcd-bench-net/v1\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n  \"host_cores\": {cores},\n",
        if opts.quick { "quick" } else { "full" }
    ));
    if cores == 1 {
        // The pooled writer/reader planes and the registration handler
        // threads exist to scale across cores; on a single-vCPU host the
        // numbers can only show the structural claims (enqueue-bounded
        // latency, O(pool) threads), never parallel speedup. Flag it so a
        // reader of the committed JSON knows a multicore rerun is owed.
        json.push_str("  \"multicore_pending\": true,\n");
    }
    json.push_str(
        "  \"note\": \"publish_ack is the publisher-visible latency (enqueue-bounded); \
         with_stalled attaches one never-reading subscriber, which must not move it. \
         fanout_256/1024/4096 drive the event-driven I/O plane via a pooled client \
         herd; os_threads_at_1k_subs is the process thread count with 1024 live \
         subscriptions (O(pool), not O(subscribers)). persist_* repeats the fan-out \
         with the durable retention log on (fsync off); the append is one buffered \
         write before Ack and must keep publish_ack within 2x of in-memory. \
         relay_tree_* is \
         the same all-delivered measurement through a 1-origin/4-edge overlay at equal \
         total subscribers (compare fanout_N_all_delivered_ns); relay_catch_up is the \
         log-backed cold-start stream rate for a late-attached edge. \
         registration_batch_N is one RegisterBatch frame of N EQ registrations, \
         registration_batch_sequential_N the same N as single Register round-trips on \
         the same connection, each summed over ten alternating pairs; their ratio is \
         the result, the ops/s are context.\",\n",
    );
    json.push_str("  \"metrics\": {\n");
    for (i, (name, v)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        json.push_str(&format!("    \"{name}\": {}{comma}\n", v.round() as u64));
    }
    json.push_str("  }\n}\n");
    let path = "BENCH_net.json";
    std::fs::write(path, &json).expect("write BENCH_net.json");
    println!("wrote {path}\n");
}

/// `BENCH_group_ops.json` as it is recorded: the `ops_ns` entries and the
/// `speedup_vs_naive` ratios, each list in recording order.
struct GroupOps {
    quick: bool,
    ops: Vec<(String, f64)>,
    speedups: Vec<(String, f64)>,
}

impl GroupOps {
    /// The full or the `--quick` count of a `[full, quick]` pair.
    fn rounds(&self, [full, quick]: [usize; 2]) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Records and prints one `ops_ns` entry; returns it in ns.
    fn entry(&mut self, key: &str, d: Duration) -> f64 {
        let ns = d.as_secs_f64() * 1e9;
        println!("{key:<34}{ns:>14.0} ns");
        self.ops.push((key.to_string(), ns));
        ns
    }

    /// One optimised/naive pair. Each side runs once on its clone of one
    /// seeded rng (building any lazy table before timing) and the results
    /// must `agree`, or this panics with the keys; then each side is timed
    /// over the `[full, quick]` round count, carrying its clone on, and
    /// both keys and `naive / fast` under `label` are recorded.
    fn twin<T>(
        &mut self,
        label: &str,
        [fast_key, naive_key]: [&str; 2],
        rounds: [usize; 2],
        mut fast: impl FnMut(&mut StdRng) -> T,
        mut naive: impl FnMut(&mut StdRng) -> T,
        agree: impl Fn(&T, &T) -> bool,
    ) {
        let mut fast_rng = bench_rng();
        let mut naive_rng = fast_rng.clone();
        assert!(
            agree(&fast(&mut fast_rng), &naive(&mut naive_rng)),
            "{fast_key} disagrees with {naive_key}"
        );
        let rounds = self.rounds(rounds);
        let f = self.entry(fast_key, time_avg(rounds, || fast(&mut fast_rng)));
        let n = self.entry(naive_key, time_avg(rounds, || naive(&mut naive_rng)));
        println!("{label:<34}{:>13.2}x", n / f);
        self.speedups.push((label.to_string(), n / f));
    }
}

/// Measures the group-arithmetic substrate and writes
/// `BENCH_group_ops.json` — a flat `op → ns/iter` map with optimized and
/// naive-baseline entries plus derived speedups, every pair through
/// [`GroupOps::twin`]. Naive baselines measure the dominant group
/// operations of the pre-optimization code paths (the double-and-add
/// ladders); sub-microsecond hashing around them is ignored.
fn bench_json(opts: &Opts) {
    const ROUNDS: [usize; 2] = [100, 3];
    const LIST_ROUNDS: [usize; 2] = [40, 1];
    let mut g = GroupOps {
        quick: opts.quick,
        ops: Vec::new(),
        speedups: Vec::new(),
    };
    println!(
        "== bench-json: group arithmetic substrate (avg over {} rounds) ==",
        g.rounds(ROUNDS)
    );

    {
        let p256 = P256Group::new();
        let mut rng = bench_rng();
        let k = p256.random_scalar(&mut rng);
        let y = p256.random_scalar(&mut rng);
        let ku = k.to_uint();
        let gen = p256.generator();
        let base = p256.exp_g(&y);
        g.twin(
            "p256_exp_g",
            ["p256_exp_g_fixed", "p256_exp_g_naive"],
            ROUNDS,
            |_| p256.exp_g(&k),
            |_| p256.exp_naive(&gen, &ku),
            PartialEq::eq,
        );
        g.twin(
            "p256_exp_var",
            ["p256_exp_var_wnaf", "p256_exp_var_naive"],
            ROUNDS,
            |_| p256.exp(&base, &k),
            |_| p256.exp_naive(&base, &ku),
            PartialEq::eq,
        );
        g.twin(
            "p256_pedersen_commit",
            ["p256_pedersen_commit", "p256_pedersen_commit_naive"],
            ROUNDS,
            |_| p256.pedersen_gh(&k, &y),
            |_| {
                p256.op(
                    &p256.exp_naive(&gen, &ku),
                    &p256.exp_naive(&p256.pedersen_h(), &y.to_uint()),
                )
            },
            PartialEq::eq,
        );
        let key = SigningKey::generate(&p256, &mut rng);
        let vk = key.verifying_key();
        let msg = b"identity token: nym=pn-1492 tag=age c=...";
        let sig = key.sign(&p256, &mut rng, msg);
        g.twin(
            "p256_schnorr_verify",
            ["p256_schnorr_verify", "p256_schnorr_verify_naive"],
            ROUNDS,
            |_| vk.verify(&p256, msg, &sig),
            |_| {
                let e = challenge(&p256, &sig.big_r, msg);
                p256.div(
                    &p256.exp_naive(&gen, &sig.s.to_uint()),
                    &p256.exp_naive(vk.element(), &e.to_uint()),
                ) == sig.big_r
            },
            |f, n| *f && *n,
        );
        // Pippenger MSM vs the per-element exp/op composition it replaces
        // (the `CyclicGroup::msm` trait default).
        for n in [8usize, 64, 256] {
            let terms: Vec<_> = (0..n)
                .map(|_| {
                    let pt = p256.exp_g(&p256.random_scalar(&mut rng));
                    (pt, p256.random_scalar(&mut rng))
                })
                .collect();
            let key = format!("p256_msm_{n}");
            g.twin(
                &key,
                [&key, &format!("{key}_naive")],
                [(2048 / n).max(4), 1],
                |_| p256.msm(&terms),
                |_| {
                    terms.iter().fold(p256.identity(), |acc, (b, k)| {
                        p256.op(&acc, &p256.exp(b, k))
                    })
                },
                PartialEq::eq,
            );
        }
        // The list primitives behind bitwise OCBE at ℓ = 48, each beside
        // the per-element composition it replaces (the trait defaults).
        let bases: Vec<_> = (0..48)
            .map(|_| p256.exp_g(&p256.random_scalar(&mut rng)))
            .collect();
        let ks: Vec<_> = (0..48).map(|_| p256.random_scalar(&mut rng)).collect();
        g.twin(
            "p256_exp_shared_scalar_48",
            [
                "p256_exp_shared_scalar_48",
                "p256_exp_shared_scalar_48_naive",
            ],
            LIST_ROUNDS,
            |_| p256.exp_shared_scalar_stepped(&bases, &k, &base, 1),
            |_| {
                bases
                    .iter()
                    .flat_map(|b| {
                        let p = p256.exp(b, &k);
                        let shifted = p256.op(&p, &base);
                        [p, shifted]
                    })
                    .collect::<Vec<_>>()
            },
            PartialEq::eq,
        );
        g.twin(
            "p256_exp_shared_base_48",
            ["p256_exp_shared_base_48", "p256_exp_shared_base_48_naive"],
            LIST_ROUNDS,
            |_| p256.exp_shared_base(&base, &ks),
            |_| ks.iter().map(|k| p256.exp(&base, k)).collect(),
            PartialEq::eq,
        );
        // Batch Schnorr verification in the production shape (a cohort of
        // tokens under the one IdMgr key: one RLC collapsed to one MSM of
        // width n + 2) vs n individual verifies against the prepared key.
        for n in [16usize, 64] {
            let msgs: Vec<Vec<u8>> = (0..n)
                .map(|i| format!("identity token #{i}").into_bytes())
                .collect();
            let sigs: Vec<_> = msgs.iter().map(|m| key.sign(&p256, &mut rng, m)).collect();
            let items: Vec<_> = msgs
                .iter()
                .zip(&sigs)
                .map(|(m, s)| (&vk, m.as_slice(), s))
                .collect();
            let key = format!("p256_schnorr_verify_batch_{n}");
            g.twin(
                &format!("schnorr_verify_batch_{n}"),
                [&key, &format!("{key}_naive")],
                [(1024 / n).max(4), 1],
                |_| verify_batch(&p256, &items),
                |_| items.iter().all(|(vk, m, s)| vk.verify(&p256, m, s)),
                |f, n| *f && *n,
            );
        }
    }
    {
        let modp = ModpGroup::new();
        let mut rng = bench_rng();
        let k = modp.random_scalar(&mut rng);
        let y = modp.random_scalar(&mut rng);
        let ku = k.to_uint();
        let gen = modp.generator();
        let base = modp.exp_g(&y);
        g.twin(
            "modp_exp_g",
            ["modp_exp_g_fixed", "modp_exp_g_naive"],
            ROUNDS,
            |_| modp.exp_g(&k),
            |_| modp.exp_naive(&gen, &ku),
            PartialEq::eq,
        );
        g.twin(
            "modp_exp_var",
            ["modp_exp_var_window", "modp_exp_var_naive"],
            ROUNDS,
            |_| modp.exp(&base, &k),
            |_| modp.exp_naive(&base, &ku),
            PartialEq::eq,
        );
        g.twin(
            "modp_pedersen_commit",
            ["modp_pedersen_commit", "modp_pedersen_commit_naive"],
            ROUNDS,
            |_| modp.pedersen_gh(&k, &y),
            |_| {
                modp.op(
                    &modp.exp_naive(&gen, &ku),
                    &modp.exp_naive(&modp.pedersen_h(), &y.to_uint()),
                )
            },
            PartialEq::eq,
        );
    }

    // GE-OCBE at the benchmark's ℓ = 48: what the two list primitives buy
    // one layer up, hashing and the AEAD included.
    {
        let mut rng = bench_rng();
        let round = ge_round(48, &mut rng);
        let ocbe_rounds = g.rounds(LIST_ROUNDS) as u32;
        let (mut compose, mut open) = (Duration::ZERO, Duration::ZERO);
        for _ in 0..ocbe_rounds {
            let (_, c, o) = ge_steps(&round, b"a 128-bit conditional secret", &mut rng);
            compose += c;
            open += o;
        }
        g.entry("ocbe_ge_l48_compose_ns", compose / ocbe_rounds);
        g.entry("ocbe_ge_l48_open_ns", open / ocbe_rounds);
    }

    // ACV-BGKM rekey at the benchmark's wider configuration (96 rows, 97
    // columns), each stage beside its twin from public primitives.
    {
        let mut rng = bench_rng();
        let w = gkm_workload(96, 100, 1, &mut rng);
        let naive = NaiveAcv {
            field: w.scheme.field().clone(),
            tau_bytes: 2,
            extra_slots: 0,
        };
        let (key, info) = w.scheme.rekey(&w.rows, &mut rng);
        let css = &w.rows[17].css_concat;
        let a = Matrix::from_fn(&naive.field, 96, 97, |_, j| match j {
            0 => naive.field.one(),
            _ => naive.field.random(&mut rng),
        });
        g.twin(
            "acv_rekey_96",
            ["acv_rekey_96", "acv_rekey_96_naive"],
            LIST_ROUNDS,
            |rng| w.scheme.rekey(&w.rows, rng),
            |rng| naive.rekey_batch(&w.rows, 1, rng).remove(0),
            PartialEq::eq,
        );
        g.twin(
            "acv_hash_row_96",
            ["acv_hash_row_96", "acv_hash_row_96_naive"],
            ROUNDS,
            |_| w.scheme.extraction_vector(&info, css),
            |_| naive.hash_row(css, &info.zs),
            |f, n| f[1..] == n[..],
        );
        g.twin(
            "linalg_null_vector_96x97",
            ["linalg_null_vector_96x97", "linalg_null_vector_96x97_naive"],
            LIST_ROUNDS,
            |rng| a.random_null_vector(rng),
            |rng| naive.null_vector(&a, rng),
            PartialEq::eq,
        );
        g.twin(
            "acv_derive_key_96",
            ["acv_derive_key_96", "acv_derive_key_96_naive"],
            ROUNDS,
            |_| w.scheme.derive_key(&info, css),
            |_| naive.derive_key(&info, css),
            |f, n| f == n && *f == key,
        );
    }

    // The per-byte path's symmetric kernels at the benchmark's sizes (one
    // 16 KiB segment, one 256 KiB log record) and the 32-byte message OCBE
    // sends ~144 of per GE registration, each beside its twin written from
    // the specification.
    {
        let key = [7u8; 32];
        let nonce = [9u8; NONCE_LEN];
        let segment = vec![0xabu8; 16 * 1024];
        let record = vec![0xcdu8; 256 * 1024];
        let (auth, naive_auth) = (AuthKey::from_master(&key), NaiveAead::from_master(&key));
        g.twin(
            "chacha20_16k",
            ["chacha20_16k", "chacha20_16k_naive"],
            ROUNDS,
            |_| {
                let mut out = segment.clone();
                chacha20_xor(&key, &nonce, 1, &mut out);
                out
            },
            |_| naive_chacha20(&key, 1, &nonce, &segment),
            PartialEq::eq,
        );
        g.twin(
            "poly1305_16k",
            ["poly1305_16k", "poly1305_16k_naive"],
            ROUNDS,
            |_| poly1305(&key, &segment),
            |_| naive_poly1305(&key, &segment),
            PartialEq::eq,
        );
        for (label, len, rounds) in [
            ("authenc_encrypt_16k", segment.len(), ROUNDS),
            ("authenc_encrypt_32", 32, ROUNDS.map(|r| r * 100)),
        ] {
            g.twin(
                label,
                [label, &format!("{label}_naive")],
                rounds,
                |_| auth.encrypt_with_nonce(&nonce, &segment[..len]),
                |_| naive_auth.encrypt_with_nonce(&nonce, &segment[..len]),
                PartialEq::eq,
            );
        }
        g.twin(
            "crc32_256k",
            ["crc32_256k", "crc32_256k_naive"],
            ROUNDS,
            |_| pbcd_net::store::crc32(&record),
            |_| naive_crc32(&record),
            PartialEq::eq,
        );
    }

    // Hand-rolled JSON (no serde in the workspace); numbers as integers
    // of nanoseconds / hundredths for stable, diff-friendly output.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::from("{\n  \"schema\": \"pbcd-bench-group-ops/v1\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n  \"host_cores\": {cores},\n",
        if opts.quick { "quick" } else { "full" }
    ));
    json.push_str("  \"ops_ns\": {\n");
    for (i, (name, v)) in g.ops.iter().enumerate() {
        let comma = if i + 1 == g.ops.len() { "" } else { "," };
        json.push_str(&format!("    \"{name}\": {}{comma}\n", v.round() as u64));
    }
    json.push_str("  },\n  \"speedup_vs_naive\": {\n");
    for (i, (name, v)) in g.speedups.iter().enumerate() {
        let comma = if i + 1 == g.speedups.len() { "" } else { "," };
        json.push_str(&format!(
            "    \"{name}\": {:.2}{comma}\n",
            (v * 100.0).round() / 100.0
        ));
    }
    json.push_str("  }\n}\n");
    let path = "BENCH_group_ops.json";
    std::fs::write(path, &json).expect("write BENCH_group_ops.json");
    println!("wrote {path}\n");
}

/// Table II: EQ-OCBE per-step times.
fn table2(opts: &Opts) {
    let rounds = if opts.quick { 5 } else { 50 };
    let mut rng = bench_rng();
    let mut compose = Duration::ZERO;
    let mut open = Duration::ZERO;
    for _ in 0..rounds {
        let (c, o) = eq_steps(b"a 128-bit conditional secret", &mut rng);
        compose += c;
        open += o;
    }
    let compose = compose / rounds as u32;
    let open = open / rounds as u32;
    println!("== Table II: EQ-OCBE average time over {rounds} rounds (ms) ==");
    print_row("step", &["paper'09".into(), "measured".into()]);
    print_row(
        "create extra commitments(Sub)",
        &["0.00".into(), "0.00".into()],
    );
    print_row(
        "compose envelope (Pub)",
        &["11.80".into(), format!("{:.2}", ms(compose))],
    );
    print_row(
        "open envelope (Sub)",
        &["35.25".into(), format!("{:.2}", ms(open))],
    );
    println!();
}

/// Figure 2: GE-OCBE per-step times vs ℓ.
fn fig2(opts: &Opts) {
    let rounds = if opts.quick { 3 } else { 50 };
    let ells: Vec<u32> = if opts.quick {
        vec![5, 20, 40]
    } else {
        vec![5, 10, 15, 20, 25, 30, 35, 40]
    };
    let (mut rng, w) = (bench_rng(), pbcd_ocbe::bitwise::DIGIT_BITS);
    println!("== Figure 2: GE-OCBE average time over {rounds} rounds (ms), {w}-bit digits ==");
    print_row(
        "l",
        &[
            "create(Sub)".into(),
            "compose(Pub)".into(),
            "open(Sub)".into(),
        ],
    );
    for &ell in &ells {
        let mut totals = [Duration::ZERO; 3];
        for _ in 0..rounds {
            let round = ge_round(ell, &mut rng);
            let (p, c, o) = ge_steps(&round, b"a 128-bit conditional secret", &mut rng);
            totals[0] += p;
            totals[1] += c;
            totals[2] += o;
        }
        print_row(
            &ell.to_string(),
            &totals
                .iter()
                .map(|t| format!("{:.2}", ms(*t / rounds as u32)))
                .collect::<Vec<_>>(),
        );
    }
    println!("paper shape: all three series linear in ceil(l/{w}) digits (the paper's bitwise form is w = 1); compose largest;");
    println!("paper magnitudes at l=40 (2009 HW, genus-2): ~900/~420/~430 ms.\n");
}

/// Figures 3, 4, 5: ACV generation time, key derivation time, ACV size vs
/// maximum users N for 25/50/75/100% fills.
fn fig345(opts: &Opts, f3: bool, f4: bool, f5: bool) {
    let (ns, fills, derive_rounds) = if opts.quick {
        (vec![100usize, 200], vec![25usize, 100], 5usize)
    } else {
        (
            vec![100, 200, 300, 400, 500, 600, 700, 800, 900, 1000],
            vec![25, 50, 75, 100],
            20,
        )
    };
    let mut rng = bench_rng();
    // Collect every cell in one sweep, then print per-figure tables.
    let mut gen_ms = vec![vec![0f64; fills.len()]; ns.len()];
    let mut derive_ms = vec![vec![0f64; fills.len()]; ns.len()];
    let mut size_kb = vec![vec![0f64; fills.len()]; ns.len()];
    for (i, &n) in ns.iter().enumerate() {
        for (j, &fill) in fills.iter().enumerate() {
            let w = gkm_workload(n, fill, 2, &mut rng);
            let t0 = Instant::now();
            let (key, info) = w.scheme.rekey(&w.rows, &mut rng);
            gen_ms[i][j] = ms(t0.elapsed());
            let css = &w
                .rows
                .first()
                .map(|r| r.css_concat.clone())
                .unwrap_or_default();
            let d = time_avg(derive_rounds, || w.scheme.derive_key(&info, css));
            derive_ms[i][j] = ms(d);
            size_kb[i][j] = info.size_bytes_compressed(80) as f64 / 1024.0;
            if !w.rows.is_empty() {
                assert_eq!(w.scheme.derive_key(&info, &w.rows[0].css_concat), key);
            }
        }
    }
    let header: Vec<String> = fills.iter().map(|f| format!("{f}% subs")).collect();
    if f3 {
        println!("== Figure 3: ACV generation time at Pub (s) ==");
        println!("{ROW_FUNCTION}");
        print_row("max users N", &header);
        for (i, &n) in ns.iter().enumerate() {
            print_row(
                &n.to_string(),
                &gen_ms[i]
                    .iter()
                    .map(|v| format!("{:.3}", v / 1e3))
                    .collect::<Vec<_>>(),
            );
        }
        println!("paper shape: superlinear growth in N and fill; <=45 s at N=1000/100%.\n");
    }
    if f4 {
        println!("== Figure 4: key derivation time at Sub (ms) ==");
        println!("{ROW_FUNCTION}");
        print_row("max users N", &header);
        for (i, &n) in ns.iter().enumerate() {
            print_row(
                &n.to_string(),
                &derive_ms[i]
                    .iter()
                    .map(|v| format!("{v:.3}"))
                    .collect::<Vec<_>>(),
            );
        }
        println!("paper shape: linear in N, fill-insensitive; single-digit ms at N=1000.\n");
    }
    if f5 {
        println!("== Figure 5: ACV size (KB) ==");
        print_row("max users N", &header);
        for (i, &n) in ns.iter().enumerate() {
            print_row(
                &n.to_string(),
                &size_kb[i]
                    .iter()
                    .map(|v| format!("{v:.2}"))
                    .collect::<Vec<_>>(),
            );
        }
        println!("paper shape: linear in N, fill-independent; ~10 KB at N=1000.\n");
    }
}

/// Figure 6: ACV generation + key derivation vs conditions per policy
/// (N=500 fixed, 25 policies, every subscriber qualified).
fn fig6(opts: &Opts) {
    let n = if opts.quick { 100 } else { 500 };
    let conds: Vec<usize> = if opts.quick {
        vec![1, 5, 10]
    } else {
        (1..=10).collect()
    };
    let derive_rounds = if opts.quick { 5 } else { 20 };
    let mut rng = bench_rng();
    println!("== Figure 6: cost vs avg conditions/policy (N={n}) ==");
    println!("{ROW_FUNCTION}");
    print_row(
        "conds/policy",
        &["ACV gen (ms)".into(), "derive (ms)".into()],
    );
    for &c in &conds {
        let w = gkm_workload(n, 100, c, &mut rng);
        let t0 = Instant::now();
        let (_, info) = w.scheme.rekey(&w.rows, &mut rng);
        let gen = ms(t0.elapsed());
        let css = w.rows[0].css_concat.clone();
        let d = ms(time_avg(derive_rounds, || w.scheme.derive_key(&info, &css)));
        print_row(&c.to_string(), &[format!("{gen:.1}"), format!("{d:.3}")]);
    }
    println!("paper shape: derivation ~flat; generation rises slightly (<100 ms span).\n");
}

/// Ablation: ACV-BGKM vs marker vs secure-lock vs simplistic — rekey time,
/// derivation time and broadcast size at equal membership.
fn ablation_gkm(opts: &Opts) {
    let sizes: Vec<usize> = if opts.quick {
        vec![8, 32]
    } else {
        vec![8, 16, 32, 64, 128, 256]
    };
    let mut rng = bench_rng();
    println!("== Ablation: GKM schemes ==");
    print_row(
        "members/scheme",
        &["rekey (ms)".into(), "derive (ms)".into(), "bytes".into()],
    );
    for &n in &sizes {
        let w = gkm_workload(n, 100, 1, &mut rng);
        let rows = &w.rows;
        let emit = |label: String, rekey: Duration, derive: Duration, size: usize| {
            print_row(
                &label,
                &[
                    format!("{:.2}", ms(rekey)),
                    format!("{:.4}", ms(derive)),
                    size.to_string(),
                ],
            );
        };
        // ACV.
        let acv = AcvBgkm::default();
        let t0 = Instant::now();
        let (_, info) = acv.rekey(rows, &mut rng);
        let t_rekey = t0.elapsed();
        let d = time_avg(5, || acv.derive_key(&info, &rows[0].css_concat));
        emit(
            format!("{n}/acv"),
            t_rekey,
            d,
            info.size_bytes_compressed(80),
        );
        // Marker.
        let mk = MarkerGkm::new();
        let t0 = Instant::now();
        let (_, info) = mk.rekey(rows, &mut rng);
        let t_rekey = t0.elapsed();
        let d = time_avg(5, || mk.derive_key(&info, &rows[0].css_concat));
        emit(format!("{n}/marker"), t_rekey, d, mk.public_size(&info));
        // Secure lock (quadratic CRT blow-up).
        let sl = SecureLockGkm::new();
        let t0 = Instant::now();
        let (_, info) = sl.rekey(rows, &mut rng);
        let t_rekey = t0.elapsed();
        let d = time_avg(5, || sl.derive_key(&info, &rows[0].css_concat));
        emit(
            format!("{n}/secure-lock"),
            t_rekey,
            d,
            sl.public_size(&info),
        );
        // Simplistic.
        let sp = SimplisticGkm::new();
        let t0 = Instant::now();
        let (_, info) = sp.rekey(rows, &mut rng);
        let t_rekey = t0.elapsed();
        let d = time_avg(5, || {
            sp.derive_key(&info, &rows[0].nym, &rows[0].css_concat)
        });
        emit(format!("{n}/simplistic"), t_rekey, d, sp.public_size(&info));
    }
    println!("expected: marker cheapest rekey but 32 B/row broadcast and the");
    println!("Sec-VIII-D nonce-reuse hazard; secure-lock rekey blows up (CRT).\n");
}

/// Ablation: group backend cost — the paper used a genus-2 Jacobian; we
/// compare P-256 vs RFC 5114 modp on raw exponentiation and EQ-OCBE.
fn ablation_group(opts: &Opts) {
    let rounds = if opts.quick { 5 } else { 30 };
    let mut rng = bench_rng();
    println!("== Ablation: group backends (avg over {rounds} rounds) ==");
    print_row("op", &["p256".into(), "modp-1024/160".into()]);
    let p256 = P256Group::new();
    let modp = ModpGroup::new();
    let exp_p = {
        let mut r = bench_rng();
        let base = p256.generator();
        time_avg(rounds, || {
            let k = p256.random_scalar(&mut r);
            p256.exp(&base, &k)
        })
    };
    let exp_m = {
        let mut r = bench_rng();
        let base = modp.generator();
        time_avg(rounds, || {
            let k = modp.random_scalar(&mut r);
            modp.exp(&base, &k)
        })
    };
    print_row(
        "exponentiation (ms)",
        &[format!("{:.3}", ms(exp_p)), format!("{:.3}", ms(exp_m))],
    );
    // Full EQ-OCBE round on each backend.
    let mut total_p = (Duration::ZERO, Duration::ZERO);
    for _ in 0..rounds {
        let (c, o) = eq_steps(b"css", &mut rng);
        total_p.0 += c;
        total_p.1 += o;
    }
    let total_p = (total_p.0 / rounds as u32, total_p.1 / rounds as u32);
    let mut total_m = (Duration::ZERO, Duration::ZERO);
    {
        use pbcd_commit::Pedersen;
        let ped = Pedersen::new(modp.clone());
        let sc = modp.scalar_ctx().clone();
        for _ in 0..rounds {
            let x = 1234u64;
            let (commitment, opening) = ped.commit_u64(x, &mut rng);
            let t0 = Instant::now();
            let env = pbcd_ocbe::eq::compose(&ped, &commitment, &sc.from_u64(x), b"css", &mut rng);
            let tc = t0.elapsed();
            let t0 = Instant::now();
            let opened = pbcd_ocbe::eq::open(&modp, &env, &opening.randomness);
            let to = t0.elapsed();
            assert!(opened.is_some());
            total_m.0 += tc;
            total_m.1 += to;
        }
    }
    let total_m = (total_m.0 / rounds as u32, total_m.1 / rounds as u32);
    print_row(
        "EQ-OCBE compose+open (ms)",
        &[
            format!("{:.2}+{:.2}", ms(total_p.0), ms(total_p.1)),
            format!("{:.2}+{:.2}", ms(total_m.0), ms(total_m.1)),
        ],
    );
    println!("note: modp wins raw exponentiation (160-bit exponents vs 256-bit");
    println!("scalars) but its elements are 128 B vs 65 B — bandwidth matters in");
    println!("GE-OCBE envelopes. The paper's 164-bit-order genus-2 Jacobian is");
    println!("closest to the modp profile.\n");
}

/// Ablation: §VIII-C sharding — rekey time vs shard capacity at large N.
fn ablation_shard(opts: &Opts) {
    let n = if opts.quick { 256 } else { 2000 };
    let caps: Vec<usize> = if opts.quick {
        vec![64, 256]
    } else {
        vec![125, 250, 500, 1000, 2000]
    };
    let mut rng = bench_rng();
    let w = gkm_workload(n, 100, 2, &mut rng);
    println!("== Ablation: sharding at N={n} (Sec VIII-C) ==");
    print_row(
        "shard capacity",
        &["rekey (s)".into(), "bytes".into(), "shards".into()],
    );
    for &cap in &caps {
        let field = FpCtx::new(pbcd_math::gkm_q80());
        let sharded = ShardedAcvBgkm::new(AcvBgkm::new(field, 2, 0), cap);
        let t0 = Instant::now();
        let (key, info) = sharded.rekey(&w.rows, &mut rng);
        let t = t0.elapsed();
        assert_eq!(
            sharded.derive_key(&info, &w.rows[0].nym, &w.rows[0].css_concat),
            Some(key)
        );
        print_row(
            &cap.to_string(),
            &[
                format!("{:.3}", t.as_secs_f64()),
                sharded.public_size(&info).to_string(),
                info.num_shards.to_string(),
            ],
        );
    }
    println!("expected: smaller shards cut the O(N^3) solve dramatically at a");
    println!("small broadcast-size overhead.\n");
}

/// Ablation: §VIII-A dominance/row-reuse — rekeying several policy
/// configurations that share subscriber×policy rows, with and without the
/// shared-nonce hash-row cache.
fn ablation_dominance(opts: &Opts) {
    let n = if opts.quick { 100 } else { 400 };
    let mut rng = bench_rng();
    println!("== Ablation: dominance row-reuse across 4 nested configs (Sec VIII-A) ==");
    print_row(
        "conds/policy",
        &["independent (s)".into(), "row-cache (s)".into()],
    );
    // The cache trades elimination width (every config gets the widest
    // nonce set) for hashing: it pays off when hashing dominates, i.e.
    // long CSS concatenations (many conditions per policy).
    let (mut won, mut lost) = (Vec::new(), Vec::new());
    for conds in [2usize, 6, 10] {
        // Nested configurations (Pc1 ⊂ Pc2 ⊂ Pc3 ⊂ Pc4), the dominance
        // chain shape of the paper's Example 4.
        let w = gkm_workload(n, 100, conds, &mut rng);
        let configs: Vec<Vec<pbcd_gkm::AccessRow>> = vec![
            w.rows[..n / 4].to_vec(),
            w.rows[..n / 2].to_vec(),
            w.rows[..3 * n / 4].to_vec(),
            w.rows.clone(),
        ];
        let scheme = AcvBgkm::default();
        let t0 = Instant::now();
        for cfg in &configs {
            let _ = scheme.rekey(cfg, &mut rng);
        }
        let independent = t0.elapsed();
        let t0 = Instant::now();
        let shared = scheme.rekey_configs(&configs, &mut rng);
        let cached = t0.elapsed();
        assert_eq!(shared.len(), configs.len());
        print_row(
            &conds.to_string(),
            &[
                format!("{:.3}", independent.as_secs_f64()),
                format!("{:.3}", cached.as_secs_f64()),
            ],
        );
        if cached < independent {
            won.push(conds.to_string());
        } else {
            lost.push(conds.to_string());
        }
    }
    let settings = |v: &[String]| match v {
        [] => "no setting".to_string(),
        _ => format!("{} conditions/policy", v.join(", ")),
    };
    println!("finding: the cache removes repeated row-function work (one SHA-256");
    println!("and N/2 ChaCha20 blocks per CSS) but pads small configs to the");
    println!(
        "widest nonce set. In this run the row cache won at {}",
        settings(&won)
    );
    println!(
        "and lost at {} (the win from shared nonces",
        settings(&lost)
    );
    println!("that does not depend on the setting is subscriber-side KEV caching,");
    println!("see ablation-batch).\n");
}

/// Ablation: §VIII-D batching — k documents sharing one policy
/// configuration: independent rekeys vs one shared matrix.
fn ablation_batch(opts: &Opts) {
    let n = if opts.quick { 100 } else { 400 };
    let k = 8;
    let mut rng = bench_rng();
    let w = gkm_workload(n, 100, 2, &mut rng);
    println!("== Ablation: batched rekey for {k} documents (Sec VIII-D) ==");
    let t0 = Instant::now();
    for _ in 0..k {
        let _ = w.scheme.rekey(&w.rows, &mut rng);
    }
    let independent = t0.elapsed();
    let t0 = Instant::now();
    let batch = w.scheme.rekey_batch(&w.rows, k, &mut rng);
    let batched = t0.elapsed();
    assert_eq!(batch.len(), k);
    print_row("strategy", &["total (s)".into(), "per doc (ms)".into()]);
    print_row(
        "independent rekeys",
        &[
            format!("{:.3}", independent.as_secs_f64()),
            format!("{:.1}", ms(independent) / k as f64),
        ],
    );
    print_row(
        "shared-matrix batch",
        &[
            format!("{:.3}", batched.as_secs_f64()),
            format!("{:.1}", ms(batched) / k as f64),
        ],
    );
    // Subscriber side: plain vs KEV-cached derivation across the batch.
    let css = w.rows[0].css_concat.clone();
    let t0 = Instant::now();
    for (_, info) in &batch {
        std::hint::black_box(w.scheme.derive_key(info, &css));
    }
    let plain = t0.elapsed();
    let mut cache = pbcd_gkm::KevCache::new();
    let t0 = Instant::now();
    for (_, info) in &batch {
        std::hint::black_box(w.scheme.derive_key_cached(info, &css, &mut cache));
    }
    let cached = t0.elapsed();
    print_row(
        "sub derive (plain)",
        &[
            format!("{:.4}", plain.as_secs_f64()),
            format!("{:.2}", ms(plain) / k as f64),
        ],
    );
    print_row(
        "sub derive (KEV cache)",
        &[
            format!("{:.4}", cached.as_secs_f64()),
            format!("{:.2}", ms(cached) / k as f64),
        ],
    );
    println!("expected: the batch shares the nonces, the row expansion and the eliminated");
    println!("matrix, drawing one null vector per key; the subscriber's KEV cache removes");
    println!("repeated row expansion (Sec VIII-D); unlike the marker scheme,");
    println!("per-document keys stay independent (no leak).\n");
}
