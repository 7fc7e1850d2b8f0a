//! Unit tests of the benchmark's own arithmetic: the tail-percentile
//! helper, the `/proc` parsers, span self time, and the command
//! generator the checker relies on.

use allconcur_core::delivery::Delivery;
use allconcur_core::replica::KvCommand;
use allconcur_perfbench::procfs::{
    parse_ctx_switches, parse_field, parse_host_steal, parse_stat_times, ProcSample,
};
use allconcur_perfbench::stats::{count, median, percentile, sort, tail};
use allconcur_perfbench::trace::{self_times, totals, Span, Tracer};
use allconcur_perfbench::verify::{delivery_digest, stream_hash};
use allconcur_perfbench::workload::{put_index, Gen, Workload, WORKLOADS};
use bytes::Bytes;

fn ascending(n: u64) -> Vec<(f64, u64)> {
    (1..=n).map(|i| (i as f64, 1)).collect()
}

fn beyond(v: &[(f64, u64)], x: f64) -> u64 {
    v.iter().filter(|&&(y, _)| y > x).map(|&(_, w)| w).sum()
}

#[test]
fn percentile_is_nearest_rank() {
    let v = ascending(100);
    assert_eq!(percentile(&v, 50.0), 50.0);
    assert_eq!(percentile(&v, 99.0), 99.0);
    assert_eq!(percentile(&v, 100.0), 100.0);
    assert_eq!(percentile(&v, 0.0), 1.0);
    assert_eq!(percentile(&[(7.0, 1)], 99.0), 7.0);
}

#[test]
fn percentile_counts_weights() {
    // 90 commands at 1 ms, 10 at 5 ms: p90 is 1 ms, p91 is 5 ms.
    let v = [(1.0, 90), (5.0, 10)];
    assert_eq!(count(&v), 100);
    assert_eq!(percentile(&v, 90.0), 1.0);
    assert_eq!(percentile(&v, 91.0), 5.0);
    let mut unsorted = vec![(5.0, 10), (1.0, 90)];
    sort(&mut unsorted);
    assert_eq!(unsorted, v.to_vec());
}

#[test]
fn tail_keeps_the_asked_percentile_when_ten_samples_lie_beyond() {
    let v = ascending(1000);
    let t = tail(&v, 99.0).expect("non-empty");
    assert_eq!(t.pct, 99.0);
    assert_eq!(t.value, 990.0);
    assert_eq!(t.samples, 1000);
    assert_eq!(beyond(&v, t.value), 10);
}

#[test]
fn tail_falls_back_to_the_highest_supported_percentile() {
    let v = ascending(500);
    let t = tail(&v, 99.0).expect("non-empty");
    assert_eq!(t.pct, 98.0);
    assert_eq!(t.value, 490.0);
    assert_eq!(t.samples, 500);
    assert_eq!(beyond(&v, t.value), 10);

    // 303 samples: the supported percentile is 96.69…, floored to 96.6.
    let v = ascending(303);
    let t = tail(&v, 99.0).expect("non-empty");
    assert!((t.pct - 96.6).abs() < 1e-9, "pct {}", t.pct);
    assert!(beyond(&v, t.value) >= 10);

    // Weighted: 2,000 commands in 20 batches of 100; p99 needs ten
    // commands beyond it, which the last batch provides.
    let v: Vec<(f64, u64)> = (1..=20).map(|i| (i as f64, 100)).collect();
    let t = tail(&v, 99.0).expect("non-empty");
    assert_eq!((t.pct, t.value, t.samples), (99.0, 20.0, 2000));
}

#[test]
fn tail_of_a_small_sample_is_the_median() {
    let v = ascending(12);
    let t = tail(&v, 99.0).expect("non-empty");
    assert_eq!(t.pct, 50.0);
    assert_eq!(t.value, 6.0);
    assert_eq!(t.samples, 12);
    assert!(tail(&[], 99.0).is_none());
}

#[test]
fn median_of_odd_and_even_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn stat_times_survive_a_command_name_with_spaces_and_parens() {
    let stat =
        "4242 (ac loop (1)) S 1 4242 4242 0 -1 4194560 500 0 0 0 1234 567 0 0 20 0 5 0 100 0 0";
    assert_eq!(parse_stat_times(stat), Some((1234, 567)));
    assert_eq!(parse_stat_times("garbage"), None);
    assert_eq!(parse_stat_times("1 (x) S 1 2"), None);
}

#[test]
fn io_and_status_fields_parse() {
    let io = "rchar: 100\nwchar: 2048\nsyscr: 7\nsyscw: 12\nread_bytes: 0\n";
    assert_eq!(parse_field(io, "syscw"), Some(12));
    assert_eq!(parse_field(io, "wchar"), Some(2048));
    assert_eq!(parse_field(io, "missing"), None);
    let status = "Name:\tperfbench\nVmHWM:\t   65432 kB\nvoluntary_ctxt_switches:\t40\nnonvoluntary_ctxt_switches:\t2\n";
    assert_eq!(parse_field(status, "VmHWM"), Some(65432));
    assert_eq!(parse_ctx_switches(status), 42);
}

#[test]
fn host_steal_is_the_eighth_cpu_field() {
    let stat = "cpu  100 5 50 800 10 0 20 15 7 0\ncpu0 50 2 25 400 5 0 10 8 3 0\nintr 1 2\n";
    assert_eq!(parse_host_steal(stat), Some((15, 1000)));
    assert_eq!(parse_host_steal("cpu0 1 2 3\n"), None);
}

#[test]
fn proc_sample_differences_keep_the_peak() {
    let a = ProcSample {
        utime_ticks: 10,
        stime_ticks: 5,
        write_syscalls: 3,
        write_bytes: 100,
        ctx_switches: 8,
        peak_rss_kb: 1000,
    };
    let b = ProcSample {
        utime_ticks: 30,
        stime_ticks: 6,
        write_syscalls: 9,
        write_bytes: 400,
        ctx_switches: 20,
        peak_rss_kb: 3000,
    };
    let d = b.since(&a);
    assert_eq!(
        (d.utime_ticks, d.stime_ticks, d.write_syscalls, d.write_bytes, d.ctx_switches),
        (20, 1, 6, 300, 12)
    );
    assert_eq!(d.peak_rss_kb, 3000);
    assert_eq!(d.user_us(), 200_000.0);
    let now = ProcSample::read();
    assert!(now.peak_rss_kb > 0, "VmHWM must be readable on Linux");
}

fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
    Span { name, start, end, parent, ops: 1 }
}

#[test]
fn self_time_subtracts_children() {
    let spans = [
        span("iteration", 0, 100, None),
        span("submit", 10, 30, Some(0)),
        span("pump", 40, 90, Some(0)),
        span("ingest", 50, 60, Some(2)),
    ];
    assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
}

#[test]
fn self_time_counts_overlapping_and_overhanging_children_once() {
    let spans = [
        span("parent", 100, 200, None),
        span("a", 90, 130, Some(0)),  // starts before the parent
        span("b", 120, 150, Some(0)), // overlaps a
        span("c", 190, 250, Some(0)), // runs past the parent
    ];
    // Covered: [100,150) + [190,200) = 60 of 100.
    assert_eq!(self_times(&spans)[0], 40);
}

#[test]
fn totals_aggregate_by_name() {
    let spans = [
        span("iteration", 0, 100, None),
        span("pump", 10, 50, Some(0)),
        span("iteration", 100, 150, None),
        span("pump", 110, 120, Some(2)),
    ];
    let t = totals(&spans);
    assert_eq!(t["iteration"].count, 2);
    assert_eq!(t["iteration"].total_ns, 150);
    assert_eq!(t["iteration"].self_ns, 100);
    assert_eq!(t["pump"].total_ns, 50);
    assert_eq!(t["pump"].ops, 2);
}

#[test]
fn tracer_nests_and_can_be_off() {
    let mut t = Tracer::new(true);
    let outer = t.begin("outer");
    let inner = t.begin("inner");
    t.end(inner, 3);
    t.end(outer, 1);
    let spans = t.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[1].ops, 3);
    assert!(spans[0].end >= spans[1].end);

    let mut off = Tracer::new(false);
    let s = off.begin("x");
    off.end(s, 1);
    assert!(off.spans().is_empty());
}

#[test]
fn generator_is_a_pure_function_of_seed_and_index() {
    for w in &WORKLOADS {
        let a = Gen::new(w, 7);
        let b = Gen::new(w, 7);
        let c = Gen::new(w, 8);
        let same = (0..200).all(|i| a.command(i) == b.command(i));
        let differs = (0..200).any(|i| a.command(i) != c.command(i));
        assert!(same && differs, "{}", w.name);
    }
}

#[test]
fn puts_carry_their_index_and_are_recognised() {
    let w = Workload::by_name("durable-open-n8").expect("workload");
    let gen = Gen::new(w, 3);
    let (mut puts, mut gets) = (0, 0);
    for i in 0..1000 {
        match gen.command(i) {
            KvCommand::Put { key, value } => {
                puts += 1;
                assert_eq!(put_index(&value), Some(i));
                assert!(gen.put_key(i, &key, &value).is_some());
                assert!(gen.put_key(i + 1, &key, &value).is_none());
            }
            KvCommand::Get { key } => {
                gets += 1;
                assert!(gen.get_key(i, &key).is_some());
            }
            KvCommand::Delete { .. } => panic!("never generated"),
        }
    }
    // 20% linearizable reads, within sampling noise.
    assert!((150..250).contains(&gets), "gets {gets} puts {puts}");
}

#[test]
fn origin_walk_visits_each_origins_commands_in_order() {
    for w in &WORKLOADS {
        for origin in 0..w.n as u32 {
            let mut i = w.first_of_origin(origin);
            for _ in 0..600 {
                assert_eq!(w.origin(i), origin, "{}", w.name);
                let next = w.next_of_origin(i);
                assert!(
                    (i + 1..next).all(|j| w.origin(j) != origin),
                    "{} skipped a command",
                    w.name
                );
                i = next;
            }
        }
    }
}

#[test]
fn delivery_digests_tell_rounds_apart() {
    let d = |messages: Vec<(u32, &'static [u8])>| Delivery {
        round: 3,
        messages: messages.into_iter().map(|(o, p)| (o, Bytes::from_static(p))).collect(),
    };
    let base = d(vec![(0, b"abcdefghij"), (1, b"")]);
    assert_eq!(delivery_digest(&base), delivery_digest(&base.clone()));
    for other in [
        d(vec![(0, b"abcdefghiJ"), (1, b"")]),   // one payload byte
        d(vec![(0, b"abcdefghij")]),             // an origin missing
        d(vec![(0, b"abcdefghij"), (2, b"")]),   // another origin
        d(vec![(0, b"abcdefghij\0"), (1, b"")]), // a trailing zero byte
    ] {
        assert_ne!(delivery_digest(&base), delivery_digest(&other), "{other:?}");
        assert_ne!(stream_hash(std::slice::from_ref(&base)), stream_hash(&[other]));
    }
}
