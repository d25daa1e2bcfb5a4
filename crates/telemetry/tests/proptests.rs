//! Property tests for the metrics registry.
//!
//! A snapshot must be a pure function of the recorded-event multiset,
//! with deterministic derived statistics, so that a harvest is
//! reproducible however the scoped-thread campaign scheduler
//! interleaved the workers that recorded into the one registry.

use grel_telemetry::{Histogram, MetricsRegistry, MetricsSnapshot};
use proptest::collection::vec;
use proptest::prelude::*;

/// One abstract recording op, replayable onto any thread.
#[derive(Debug, Clone)]
enum Op {
    Count(u8, u64),
    Observe(u8, u32),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, 0u64..1000).prop_map(|(k, v)| Op::Count(k, v)),
        (0u8..4, 0u32..5_000_000).prop_map(|(k, v)| Op::Observe(k, v)),
    ]
}

fn name(k: u8) -> String {
    format!("metric_{k}")
}

/// Replays ops into one registry from `threads` dedicated threads, each
/// taking one contiguous chunk of the stream.
fn record_threaded(ops: &[Op], threads: usize) -> MetricsSnapshot {
    let reg = MetricsRegistry::new();
    std::thread::scope(|scope| {
        for chunk in ops.chunks(ops.len().div_ceil(threads).max(1)) {
            let reg = &reg;
            scope.spawn(move || {
                for op in chunk {
                    match op {
                        Op::Count(k, v) => reg.counter(&name(*k), *v),
                        Op::Observe(k, v) => reg.observe(&name(*k), *v as f64 * 1e-3),
                    }
                }
            });
        }
    });
    reg.snapshot()
}

proptest! {
    /// Recording the same op stream from 1, 2 or 5 threads yields
    /// identical snapshots: the thread count is invisible.
    #[test]
    fn merge_is_shard_count_independent(ops in vec(op(), 0..120)) {
        let one = record_threaded(&ops, 1);
        let two = record_threaded(&ops, 2);
        let five = record_threaded(&ops, 5);
        prop_assert_eq!(&one, &two);
        prop_assert_eq!(&one, &five);
    }

    /// Counter totals equal the plain sum of all deltas, however the
    /// stream was split across threads.
    #[test]
    fn counters_sum_exactly(ops in vec(op(), 0..120)) {
        let snap = record_threaded(&ops, 3);
        for k in 0u8..4 {
            let expected: u64 = ops
                .iter()
                .filter_map(|op| match op {
                    Op::Count(key, v) if *key == k => Some(*v),
                    _ => None,
                })
                .sum();
            let got = snap.counter(&name(k)).unwrap_or(0);
            prop_assert_eq!(got, expected);
        }
    }

    /// Histogram count/sum are exact and quantiles are a deterministic
    /// pure function of the sample multiset: shuffling the sample order
    /// or re-recording produces bit-identical statistics.
    #[test]
    fn histogram_quantiles_deterministic(
        samples in vec(0u32..5_000_000, 1..80),
        rot in 1usize..17,
    ) {
        let record_all = |vals: &[u32]| {
            let mut h = Histogram::default();
            for v in vals {
                h.record(*v as f64 * 1e-3);
            }
            h
        };
        let a = record_all(&samples);
        let mut shuffled = samples.clone();
        shuffled.rotate_left(rot % samples.len());
        let b = record_all(&shuffled);

        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.count(), samples.len() as u64);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let qa = a.quantile(q);
            let qb = b.quantile(q);
            prop_assert_eq!(qa.to_bits(), qb.to_bits());
            // Quantiles always land inside the observed range.
            prop_assert!(qa >= a.min() && qa <= a.max());
        }
    }
}

proptest! {
    /// The campaign runner's per-worker pattern: every worker records
    /// into both a shared counter and a worker-labelled counter
    /// (`…{worker="w"}`). However many workers the site list is striped
    /// across, the shared counter must equal the injection count and the
    /// labelled counters must partition it exactly — concurrent records
    /// never lose or double-count a worker's contribution.
    #[test]
    fn worker_labelled_shards_partition_the_total(
        injections in 1usize..200,
        jobs in 1usize..9,
    ) {
        let reg = MetricsRegistry::new();
        std::thread::scope(|scope| {
            for w in 0..jobs {
                let reg = &reg;
                scope.spawn(move || {
                    // Striped, exactly as the runner assigns sites.
                    let mine = (w..injections).step_by(jobs).count() as u64;
                    for _ in 0..mine {
                        reg.counter("campaign_injections_total", 1);
                    }
                    reg.counter(
                        &format!("campaign_worker_injections_total{{worker=\"{w}\"}}"),
                        mine,
                    );
                });
            }
        });
        let snap = reg.snapshot();
        prop_assert_eq!(
            snap.counter("campaign_injections_total").unwrap_or(0),
            injections as u64
        );
        let labelled: u64 = (0..jobs)
            .map(|w| {
                snap.counter(&format!(
                    "campaign_worker_injections_total{{worker=\"{w}\"}}"
                ))
                .unwrap_or(0)
            })
            .sum();
        prop_assert_eq!(labelled, injections as u64);
    }
}

/// Gauge semantics need a real order of writes (the proptest model
/// above has none), so pin them with a deterministic check: a write
/// from another thread that happens after ours wins.
#[test]
fn gauge_latest_write_wins_across_threads() {
    let reg = MetricsRegistry::new();
    reg.gauge("g", 1.0);
    std::thread::scope(|scope| {
        let reg = &reg;
        scope
            .spawn(move || {
                reg.gauge("g", 2.0);
            })
            .join()
            .expect("writer thread");
    });
    // The spawned thread's write happened after ours: it must win.
    assert_eq!(reg.snapshot().gauge("g"), Some(2.0));
}
