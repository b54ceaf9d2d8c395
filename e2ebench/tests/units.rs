use mcr_e2ebench::metrics::{END_TO_END, PER_LAYER};
use mcr_e2ebench::procfs::{parse_stat_cpu_ticks, parse_vmhwm_kb};
use mcr_e2ebench::stats::{median, tail, TAIL_BEYOND};
use mcr_e2ebench::trace::{covered_ns, self_times, Span, Tracer};

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    // 100 samples, shuffled: p90 is the 90th smallest, with 10 beyond.
    let samples: Vec<f64> = (1..=100).map(|i| f64::from((i * 37) % 100 + 1)).collect();
    let t = tail(&samples).expect("samples");
    assert_eq!(t.value, 90.0);
    assert_eq!(t.percentile, 90.0);
    assert_eq!(t.samples, 100);
    assert_eq!(t.beyond, TAIL_BEYOND);

    // 1000 samples: p99.
    let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
    let t = tail(&samples).expect("samples");
    assert_eq!((t.value, t.percentile, t.beyond), (990.0, 99.0, 10));

    // Exactly eleven samples: the smallest has ten beyond it.
    let samples: Vec<f64> = (1..=11).map(f64::from).collect();
    let t = tail(&samples).expect("samples");
    assert_eq!((t.value, t.beyond, t.samples), (1.0, 10, 11));
}

#[test]
fn tail_falls_back_to_the_median_with_too_few_samples() {
    let samples: Vec<f64> = (1..=10).map(f64::from).collect();
    let t = tail(&samples).expect("samples");
    assert_eq!((t.value, t.beyond, t.samples), (5.0, 5, 10));
    assert_eq!(t.percentile, 50.0);
    assert!(tail(&[]).is_none());
    assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
}

fn span(id: u64, start_ns: u64, end_ns: u64, parent: Option<u64>) -> Span {
    Span {
        id,
        name: "s",
        start_ns,
        end_ns,
        parent,
        job: Some(1),
    }
}

#[test]
fn self_time_subtracts_the_union_of_overlapping_children() {
    // Children overlap each other (10..30, 20..50) and one runs past the
    // parent's end (90..120): covered = 10..50 + 90..100 = 50.
    assert_eq!(covered_ns(0, 100, &[(10, 30), (20, 50), (90, 120)]), 50);
    assert_eq!(covered_ns(0, 100, &[(20, 50), (10, 30), (30, 40)]), 40);
    assert_eq!(covered_ns(0, 100, &[(100, 150), (200, 300)]), 0);
    assert_eq!(covered_ns(0, 100, &[(0, 100), (10, 20)]), 100);

    let spans = vec![
        span(1, 0, 100, None),
        span(2, 10, 30, Some(1)),
        span(3, 20, 50, Some(1)),
        span(4, 90, 120, Some(1)),
        // A grandchild counts against its parent only.
        span(5, 22, 28, Some(2)),
    ];
    let selfs = self_times(&spans);
    assert_eq!(selfs[&1], 50);
    assert_eq!(selfs[&2], 14);
    assert_eq!(selfs[&3], 30);
    assert_eq!(selfs[&5], 6);
}

#[test]
fn nested_spans_link_parents_and_inherit_the_job() {
    let tracer = Tracer::new();
    {
        let _off = tracer.enter("ignored", Some(9));
    }
    assert!(
        tracer.take().is_empty(),
        "a disabled tracer records nothing"
    );

    tracer.set_enabled(true);
    {
        let _job = tracer.enter("job", Some(7));
        let _phase = tracer.enter("index", None);
        let _get = tracer.enter("store.get", None);
    }
    let spans = tracer.take();
    let by = |name: &str| spans.iter().find(|s| s.name == name).expect("recorded");
    let (job, phase, get) = (by("job"), by("index"), by("store.get"));
    assert_eq!(job.parent, None);
    assert_eq!(phase.parent, Some(job.id));
    assert_eq!(get.parent, Some(phase.id));
    assert!(spans.iter().all(|s| s.job == Some(7)));
    assert!(job.start_ns <= phase.start_ns && get.end_ns <= job.end_ns);
}

#[test]
fn stat_parser_reads_utime_plus_stime_past_a_tricky_command_name() {
    let stat = "4321 (bench (w) x) R 1 2 3 4 5 6 7 8 9 10 250 30 0 0 20 0 3 0 100 \
                4096 300 18446744073709551615";
    assert_eq!(parse_stat_cpu_ticks(stat), Some(280));
    assert_eq!(parse_stat_cpu_ticks("4321 (short) R 1 2"), None);
    assert_eq!(parse_stat_cpu_ticks("no command name"), None);
    assert_eq!(
        parse_stat_cpu_ticks("1 (x) S 1 2 3 4 5 6 7 8 9 10 abc 30"),
        None
    );
}

#[test]
fn status_parser_reads_vmhwm_in_kib() {
    let status = "Name:\tmcr-e2ebench\nVmPeak:\t  120000 kB\nVmSize:\t  110000 kB\n\
                  VmHWM:\t   13316 kB\nVmRSS:\t   12000 kB\n";
    assert_eq!(parse_vmhwm_kb(status), Some(13316));
    assert_eq!(parse_vmhwm_kb("VmRSS:\t 12 kB\n"), None);
    assert_eq!(parse_vmhwm_kb("VmHWM:\t 12 MB\n"), None);
    assert_eq!(parse_vmhwm_kb("VmHWM:\t\n"), None);
}

#[test]
fn live_proc_files_parse() {
    assert!(mcr_e2ebench::procfs::cpu_seconds() >= 0.0);
    assert!(mcr_e2ebench::procfs::peak_rss_mb() > 0.0);
}

#[test]
fn benchmark_json_lists_every_reported_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for d in END_TO_END {
        let prefix = format!(
            r#"{{"name": "{}", "unit": "{}", "better": "{}", "bound": "#,
            d.name,
            d.unit,
            d.better.as_str()
        );
        assert!(
            json.contains(&prefix),
            "end-to-end metric {} missing",
            d.name
        );
    }
    for d in PER_LAYER {
        let entry = format!(
            r#"{{"name": "{}", "unit": "{}", "better": "{}"}}"#,
            d.name,
            d.unit,
            d.better.as_str()
        );
        assert!(json.contains(&entry), "per-layer metric {} missing", d.name);
    }
    assert_eq!(
        json.matches(r#""name": "#).count(),
        3 + END_TO_END.len() + PER_LAYER.len(),
        "three workloads plus every metric, and nothing else"
    );
}

#[test]
fn blocked_tail_takes_the_median_of_per_block_tails() {
    use mcr_e2ebench::stats::blocked_tail;
    // Short runs: the plain tail over every sample.
    let short: Vec<f64> = (1..=150).map(f64::from).collect();
    let b = blocked_tail(&short, 100).expect("samples");
    assert_eq!(b.blocks, 1);
    assert_eq!(b.tail, tail(&short).expect("samples"));

    // Three full blocks of 100 (p90 each: 90, 190, 290) and a partial
    // one that is ignored; one block holds a huge stall.
    let mut long: Vec<f64> = (1..=300).map(f64::from).collect();
    long[250] = 1e9;
    long.extend([5e9; 40]);
    let b = blocked_tail(&long, 100).expect("samples");
    assert_eq!(b.blocks, 3);
    assert_eq!(b.tail.value, 190.0);
    assert_eq!(
        (b.tail.percentile, b.tail.samples, b.tail.beyond),
        (90.0, 100, 10)
    );
}

#[test]
fn mean_of_medians_weights_each_group_once() {
    use mcr_e2ebench::stats::mean_of_medians;
    // Two clusters around 10 and 50 (group 0 and 2; group 1 is empty).
    let samples = [9.0, 10.0, 11.0, 48.0, 50.0, 52.0, 49.0, 51.0];
    let groups = [0, 0, 0, 2, 2, 2, 2, 2];
    assert_eq!(mean_of_medians(&samples, &groups), 30.0);
    assert_eq!(mean_of_medians(&[], &[]), 0.0);
}
