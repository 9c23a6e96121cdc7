//! How long one writer waits beside readers of the same shard.
//!
//! Builds one in-memory shard over the churn trace on a `[0, 1_000_000]`
//! time axis (the axis the benchmark harness uses), then runs an appender
//! that paces itself at about one append per 0.5 ms, three times: alone,
//! beside a loop of 8-point multipoint reads (`snapshots_at`), and beside
//! a loop of cold single points (`graph_at`). For each case it prints the
//! appender's append count, its p50 and p99 append latency, and the time
//! callers spent waiting for the shard's write lock
//! (`lock_wait_us().1`). A reader that holds the shard's read lock through
//! its fetches shows as an appender p99 far above the one it has alone.
//!
//! Run with `cargo run --release --example writer_beside_readers`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use historygraph::datagen::{churn_trace, ChurnConfig};
use historygraph::tgraph::{AttrOptions, ColumnGraph, Event, Timestamp};
use historygraph::{ShardedConfig, ShardedGraphManager};

/// Last time point of the generated history.
const END: i64 = 1_000_000;
/// How long each case runs.
const CASE: Duration = Duration::from_secs(5);
/// The appender's pace.
const PACE: Duration = Duration::from_micros(500);

/// The read loop running beside the appender.
#[derive(Clone, Copy)]
enum Readers {
    None,
    Multipoint,
    ColdPoint,
}

fn main() {
    let mut cfg = ChurnConfig::default();
    cfg.base.start_time = 0;
    cfg.base.end_time = 700_000;
    cfg.end_time = END;
    let events = churn_trace(&cfg).events;
    let started = Instant::now();
    let router = ShardedGraphManager::build_in_memory(&events, ShardedConfig::default())
        .expect("build the shard");
    println!(
        "{} events on one shard, built in {:.1} s",
        events.len(),
        started.elapsed().as_secs_f64()
    );
    let mut next = END + 1;
    for (name, readers) in [
        ("alone", Readers::None),
        ("beside 8-point snapshots_at", Readers::Multipoint),
        ("beside cold graph_at", Readers::ColdPoint),
    ] {
        let (_, write_wait_before) = router.lock_wait_us();
        let (mut latencies, reads) = run_case(&router, readers, &mut next);
        let (_, write_wait_after) = router.lock_wait_us();
        latencies.sort_unstable();
        let quantile = |q: f64| latencies[((latencies.len() - 1) as f64 * q) as usize];
        println!(
            "{name:<28} appends={:>6} p50_us={:>7} p99_us={:>7} write_lock_wait_us={:>9} reads={reads}",
            latencies.len(),
            quantile(0.5),
            quantile(0.99),
            write_wait_after - write_wait_before
        );
    }
}

/// Runs the appender for [`CASE`] beside `readers`; returns each append's
/// latency in microseconds and how many reads completed.
fn run_case(router: &ShardedGraphManager, readers: Readers, next: &mut i64) -> (Vec<u64>, u64) {
    let stop = AtomicBool::new(false);
    thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let opts = AttrOptions::all();
            let mut rng = 0x9E37_79B9_7F4A_7C15u64;
            let mut time = move || {
                // xorshift64: a time in the built history.
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                Timestamp((rng % END as u64) as i64)
            };
            let mut reads = 0;
            while !stop.load(Ordering::Relaxed) {
                match readers {
                    Readers::None => return reads,
                    Readers::Multipoint => {
                        let times: Vec<Timestamp> = (0..8).map(|_| time()).collect();
                        router.snapshots_at(&times, &opts).expect("multipoint read");
                    }
                    Readers::ColdPoint => {
                        router
                            .graph_at::<ColumnGraph>(time(), &opts)
                            .expect("point read");
                    }
                }
                reads += 1;
            }
            reads
        });
        let mut latencies = Vec::new();
        let started = Instant::now();
        while started.elapsed() < CASE {
            let t = *next;
            *next += 1;
            let append = Instant::now();
            router
                .append_event(Event::add_node(t, 10_000_000 + t as u64))
                .expect("append");
            latencies.push(append.elapsed().as_micros() as u64);
            thread::sleep(PACE.saturating_sub(append.elapsed()));
        }
        stop.store(true, Ordering::Relaxed);
        (latencies, reader.join().expect("reader thread"))
    })
}
