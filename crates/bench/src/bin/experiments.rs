//! Experiment drivers reproducing every table and figure of the paper's
//! evaluation (Section VI). One subcommand per experiment:
//!
//! ```sh
//! cargo run --release -p dcer-bench --bin experiments -- all
//! cargo run --release -p dcer-bench --bin experiments -- table5 --scale 0.5
//! ```
//!
//! Absolute numbers differ from the paper (their substrate was a
//! 32-machine cluster over 30M-480M tuples; ours is a single container
//! over scaled-down synthetic analogues — see `DESIGN.md` §4/§5). The
//! *shapes* are the reproduction target: method ordering, ablation gaps,
//! MQO savings, parallel speedups. Results are also appended as JSON to
//! `results/experiments.jsonl` for archival.

use dcer_bench::*;
use dcer_eval::{format_series, format_table, table_json, Cell};
use dcer_mrl::parse_rules;
use std::fmt::Write as _;
use std::time::Instant;

struct Args {
    command: String,
    scale: f64,
    workers: usize,
}

fn parse_args() -> Args {
    let mut args = Args { command: "all".into(), scale: 1.0, workers: 16 };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                i += 1;
                args.scale = argv[i].parse().expect("--scale <f64>");
            }
            "--workers" => {
                i += 1;
                args.workers = argv[i].parse().expect("--workers <n>");
            }
            cmd if !cmd.starts_with('-') => args.command = cmd.to_string(),
            other => panic!("unknown flag {other}"),
        }
        i += 1;
    }
    args
}

/// Print a table and append it to `results/experiments.jsonl`.
fn emit(title: &str, headers: &[&str], rows: Vec<Vec<Cell>>) {
    use std::io::Write;
    println!("{}", format_table(title, headers, &rows));
    if let Ok(mut f) =
        std::fs::OpenOptions::new().create(true).append(true).open("results/experiments.jsonl")
    {
        let _ = writeln!(f, "{}", table_json(title, headers, &rows));
    }
}

/// Table V: F-measure and time for every method on the four labeled
/// corpora.
fn table5(scale: f64, workers: usize) {
    let dup = 0.3;
    let workloads = [
        imdb_workload(scale, dup),
        dblp_workload(scale, dup),
        movie_workload(scale, dup),
        songs_workload(scale, dup),
    ];
    // Baselines first (per paper layout), DMatch last. Build each
    // workload's baseline set (and its trained classifier) once.
    let per_workload: Vec<Vec<(String, RunResult)>> = workloads
        .iter()
        .map(|w| {
            baselines_for(w)
                .iter()
                .map(|b| (b.name().to_string(), run_baseline(w, b.as_ref())))
                .collect()
        })
        .collect();
    let mut rows: Vec<Vec<Cell>> = Vec::new();
    for bi in 0..per_workload[0].len() {
        let mut row: Vec<Cell> = vec![Cell::Str(per_workload[0][bi].0.clone())];
        for wl in &per_workload {
            let r = &wl[bi].1;
            row.push(Cell::F2(r.metrics.f_measure));
            row.push(Cell::F3(r.wall_secs));
        }
        rows.push(row);
    }
    let mut row: Vec<Cell> = vec!["DMatch".into()];
    for w in &workloads {
        let (r, _) = run_dmatch(w, workers, true);
        row.push(Cell::F2(r.metrics.f_measure));
        row.push(Cell::F3(r.parallel_secs.unwrap()));
    }
    rows.push(row);
    emit(
        "Table V: accuracy (F) and time (s) on labeled corpora",
        &["method", "IMDB F", "T(s)", "ACM-DBLP F", "T(s)", "Movie F", "T(s)", "Songs F", "T(s)"],
        rows,
    );
    println!(
        "paper shape: DMatch within the top methods everywhere (paper avg F 0.95+);\n\
         single-table baselines lose on the multi-table corpora (Movie, ACM-DBLP).\n"
    );
}

/// Table VI: DMatch accuracy on TPCH and TFACC as Dup varies.
fn table6(scale: f64, workers: usize) {
    let dups = [0.1, 0.2, 0.3, 0.4, 0.5];
    let mut rows = Vec::new();
    for &dup in &dups {
        let tp = tpch_workload(scale, dup);
        let tf = tfacc_workload(scale, dup);
        let (rp, _) = run_dmatch(&tp, workers, true);
        let (rf, _) = run_dmatch(&tf, workers, true);
        rows.push(vec![
            Cell::F2(dup),
            Cell::F3(rp.metrics.f_measure),
            Cell::F3(rf.metrics.f_measure),
        ]);
    }
    emit("Table VI: DMatch accuracy vs Dup", &["Dup", "TPCH F", "TFACC F"], rows);
    println!(
        "paper shape: F stays high (0.85-0.87 on TPCH) and degrades only slightly with Dup.\n"
    );
}

/// Fig 6(a)/(b): accuracy of DMatch vs its ablations and the distributed
/// baselines at Dup = 0.5.
fn fig6_accuracy(scale: f64, workers: usize, tfacc: bool) {
    let w = if tfacc { tfacc_workload(scale, 0.5) } else { tpch_workload(scale, 0.5) };
    let title = if tfacc {
        "Fig 6(b): accuracy on TFACC (Dup = 0.5)"
    } else {
        "Fig 6(a): accuracy on TPCH (Dup = 0.5)"
    };
    let mut rows = Vec::new();
    let (full, _) = run_dmatch(&w, workers, true);
    rows.push(vec![Cell::from("DMatch"), Cell::F3(full.metrics.f_measure)]);
    let c = run_variant(&w, &w.session.collective_only(), workers);
    rows.push(vec![Cell::from("DMatch_C"), Cell::F3(c.metrics.f_measure)]);
    let d = run_variant(&w, &w.session.deep_only(4), workers);
    rows.push(vec![Cell::from("DMatch_D"), Cell::F3(d.metrics.f_measure)]);
    for b in baselines_for(&w) {
        if ["Dedoop-like", "DisDedup-like", "SparkER-like"].contains(&b.name()) {
            let r = run_baseline(&w, b.as_ref());
            rows.push(vec![Cell::Str(b.name().to_string()), Cell::F3(r.metrics.f_measure)]);
        }
    }
    emit(title, &["method", "F"], rows);
    println!("paper shape: DMatch > DMatch_D > DMatch_C; distributed single-table baselines below DMatch.\n");
}

/// Fig 6(c)/(d): ER time vs Dup.
fn fig6_time_vs_dup(scale: f64, workers: usize, tfacc: bool) {
    let dups = [0.1, 0.2, 0.3, 0.4, 0.5];
    let mut dmatch = Vec::new();
    let mut sparker = Vec::new();
    let mut disdedup = Vec::new();
    for &dup in &dups {
        // 8x base size: at the default container scale the Dup range adds
        // only a handful of tuples and the trend drowns in noise.
        let w =
            if tfacc { tfacc_workload(scale * 8.0, dup) } else { tpch_workload(scale * 8.0, dup) };
        let (r, _) = run_dmatch(&w, workers, true);
        dmatch.push(r.parallel_secs.unwrap());
        for b in baselines_for(&w) {
            let secs = || run_baseline(&w, b.as_ref()).wall_secs;
            match b.name() {
                "SparkER-like" => sparker.push(secs()),
                "DisDedup-like" => disdedup.push(secs()),
                _ => {}
            }
        }
    }
    let title = if tfacc {
        "Fig 6(d): time vs Dup on TFACC (n = 16)"
    } else {
        "Fig 6(c): time vs Dup on TPCH (n = 16)"
    };
    let xs: Vec<String> = dups.iter().map(|d| format!("{d}")).collect();
    println!(
        "{}",
        format_series(
            title,
            "Dup",
            &xs,
            &[("DMatch(s)", dmatch), ("SparkER-like(s)", sparker), ("DisDedup-like(s)", disdedup),],
        )
    );
    println!(
        "paper shape: all methods grow with Dup; DMatch stays competitive despite recursion.\n"
    );
}

/// Fig 6(e)/(f): DMatch vs DMatch_noMQO as the predicate count per rule
/// grows.
fn fig6_time_vs_preds(scale: f64, workers: usize, tfacc: bool) {
    let preds: Vec<usize> = if tfacc { vec![4, 5, 6, 7, 8] } else { vec![2, 4, 6, 8, 10] };
    let mut with_mqo = Vec::new();
    let mut without = Vec::new();
    for &p in &preds {
        let (data, _truth, catalog, src, registry) = if tfacc {
            let w = tfacc_workload(scale * 4.0, 0.3);
            (
                w.data,
                w.truth,
                dcer_datagen::tfacc::catalog(),
                dcer_datagen::tfacc::rules_source_predicates(10, p),
                dcer_datagen::tfacc::make_registry(),
            )
        } else {
            let w = tpch_workload(scale * 2.0, 0.3);
            (
                w.data,
                w.truth,
                dcer_datagen::tpch::catalog(),
                dcer_datagen::tpch::rules_source_predicates(10, p),
                dcer_datagen::tpch::make_registry(),
            )
        };
        let rules = parse_rules(&catalog, &src).unwrap();
        let session = dcer_core::DcerSession::new(catalog, rules, registry);
        for (mqo, bucket) in [(true, &mut with_mqo), (false, &mut without)] {
            let mut cfg = dcer_core::DmatchConfig::new(workers);
            cfg.use_mqo = mqo;
            let report = session.run_parallel(&data, &cfg).unwrap();
            bucket.push(report.partition_secs + report.simulated_er_secs);
        }
    }
    let title = if tfacc {
        "Fig 6(f): time vs |phi| on TFACC (n = 16, 10 rules)"
    } else {
        "Fig 6(e): time vs |phi| on TPCH (n = 16, 10 rules)"
    };
    let xs: Vec<String> = preds.iter().map(|p| p.to_string()).collect();
    println!(
        "{}",
        format_series(
            title,
            "|phi|",
            &xs,
            &[("DMatch(s)", with_mqo), ("DMatch_noMQO(s)", without)]
        )
    );
    println!("paper shape: time grows with |phi|; MQO's advantage grows with shared predicates.\n");
}

/// Fig 6(g)/(h): DMatch vs DMatch_noMQO as the rule count grows.
fn fig6_time_vs_rules(scale: f64, workers: usize, tfacc: bool) {
    let counts: Vec<usize> = if tfacc { vec![10, 15, 20, 25, 30] } else { vec![30, 45, 60, 75] };
    let mut with_mqo = Vec::new();
    let mut without = Vec::new();
    for &k in &counts {
        let (data, catalog, src, registry) = if tfacc {
            let w = tfacc_workload(scale, 0.3);
            (
                w.data,
                dcer_datagen::tfacc::catalog(),
                dcer_datagen::tfacc::rules_source_scaled(k),
                dcer_datagen::tfacc::make_registry(),
            )
        } else {
            let w = tpch_workload(scale, 0.3);
            (
                w.data,
                dcer_datagen::tpch::catalog(),
                dcer_datagen::tpch::rules_source_scaled(k),
                dcer_datagen::tpch::make_registry(),
            )
        };
        let rules = parse_rules(&catalog, &src).unwrap();
        let session = dcer_core::DcerSession::new(catalog, rules, registry);
        for (mqo, bucket) in [(true, &mut with_mqo), (false, &mut without)] {
            let mut cfg = dcer_core::DmatchConfig::new(workers);
            cfg.use_mqo = mqo;
            let report = session.run_parallel(&data, &cfg).unwrap();
            bucket.push(report.partition_secs + report.simulated_er_secs);
        }
    }
    let title = if tfacc {
        "Fig 6(h): time vs ||Sigma|| on TFACC (n = 16)"
    } else {
        "Fig 6(g): time vs ||Sigma|| on TPCH (n = 16)"
    };
    let xs: Vec<String> = counts.iter().map(|c| c.to_string()).collect();
    println!(
        "{}",
        format_series(
            title,
            "||Sigma||",
            &xs,
            &[("DMatch(s)", with_mqo), ("DMatch_noMQO(s)", without)]
        )
    );
    println!("paper shape: more rules cost more; MQO sharing grows with the rule count.\n");
}

/// Fig 6(i)/(j): parallel scalability — simulated parallel ER time vs n.
///
/// Uses 8x the base data size and virtual-block factor 2: the paper's `n²`
/// virtual blocks target multi-million-tuple fragments; at container scale
/// their replication overhead would swamp the per-worker compute that the
/// scalability claim (Theorem 7) is about. Partitioning time is excluded,
/// matching the paper ("we only report the ER time").
fn fig6_scalability(scale: f64, tfacc: bool) {
    let ns = [4usize, 8, 16, 32];
    let mut with_mqo = Vec::new();
    let mut without = Vec::new();
    let w = if tfacc { tfacc_workload(scale * 8.0, 0.3) } else { tpch_workload(scale * 8.0, 0.3) };
    for &n in &ns {
        for (mqo, bucket) in [(true, &mut with_mqo), (false, &mut without)] {
            let mut cfg = dcer_core::DmatchConfig::new(n);
            cfg.use_mqo = mqo;
            cfg.virtual_factor = Some(2);
            // Min of 3 runs: single-run makespans at container scale are
            // noisy (tens of milliseconds).
            let best = (0..3)
                .map(|_| w.session.run_parallel(&w.data, &cfg).unwrap().simulated_er_secs)
                .fold(f64::INFINITY, f64::min);
            bucket.push(best);
        }
    }
    let title = if tfacc {
        "Fig 6(j): simulated parallel time vs n on TFACC"
    } else {
        "Fig 6(i): simulated parallel time vs n on TPCH"
    };
    let xs: Vec<String> = ns.iter().map(|n| n.to_string()).collect();
    println!(
        "{}",
        format_series(
            title,
            "n",
            &xs,
            &[("DMatch(s)", with_mqo.clone()), ("DMatch_noMQO(s)", without)]
        )
    );
    let speedup = with_mqo[0] / with_mqo[ns.len() - 1];
    println!(
        "speedup n=4 -> n=32: {speedup:.2}x (paper: 3.56x on TPCH). Parallel scalability\n\
         (Theorem 7): time decreases as workers are added.\n"
    );
}

/// Fig 6(k)/(l): time vs dataset scale factor.
fn fig6_time_vs_scale(scale: f64, workers: usize, tfacc: bool) {
    let factors = [0.05, 0.1, 0.25, 0.5, 1.0];
    let mut with_mqo = Vec::new();
    let mut without = Vec::new();
    let mut sizes = Vec::new();
    for &f in &factors {
        let w = if tfacc {
            tfacc_workload(scale * f * 2.5, 0.3)
        } else {
            tpch_workload(scale * f * 2.5, 0.3)
        };
        sizes.push(w.data.total_tuples());
        let (r, _) = run_dmatch(&w, workers, true);
        with_mqo.push(r.parallel_secs.unwrap());
        let (r, _) = run_dmatch(&w, workers, false);
        without.push(r.parallel_secs.unwrap());
    }
    let title = if tfacc {
        "Fig 6(l): time vs scale on TFACC (n = 16)"
    } else {
        "Fig 6(k): time vs scale factor on TPCH (n = 16)"
    };
    let xs: Vec<String> = factors.iter().zip(&sizes).map(|(f, s)| format!("{f} ({s}t)")).collect();
    println!(
        "{}",
        format_series(title, "SF", &xs, &[("DMatch(s)", with_mqo), ("DMatch_noMQO(s)", without)])
    );
    println!("paper shape: near-linear growth with data size; MQO consistently ahead.\n");
}

/// Exp-2 "Partitioning": HyPart time vs ER time as n varies.
fn partitioning(scale: f64) {
    let w = tpch_workload(scale * 8.0, 0.3);
    let mut rows = Vec::new();
    for n in [4usize, 8, 16, 32] {
        let (_, report) = run_dmatch(&w, n, true);
        // The paper partitions in parallel too (its HyPart time *drops*
        // from 18.19s to 11.49s as n grows); hashing and distribution
        // shard trivially, so we report host partition time / n.
        let par_partition = report.partition_secs / n as f64;
        let frac = par_partition / (par_partition + report.simulated_er_secs);
        rows.push(vec![
            Cell::from(n),
            Cell::F3(par_partition),
            Cell::F3(report.simulated_er_secs),
            Cell::F2(frac * 100.0),
            Cell::F2(report.partition.replication_factor),
            Cell::from(report.partition.hash_computations as i64),
        ]);
    }
    emit(
        "Exp-2: partitioning vs ER time on TPCH",
        &["n", "HyPart(s)", "ER(s)", "partition %", "replication", "hash comps"],
        rows,
    );
    println!("paper shape: ER time dominates; partitioning stays a small fraction (<= ~15%).\n");
}

/// Exp-4 case study: the discovered deep+collective rules and what they
/// prove, including the 3-level recursion anecdote.
fn case_study(scale: f64, workers: usize) {
    let w = tpch_workload(scale, 0.4);
    println!("== Exp-4 case study: TPCH rules (phi_a, phi_b) ==");
    for r in w.session.rules().rules() {
        println!(
            "  {}\n    class {:?}, acyclic {}",
            r.display(w.session.catalog()),
            dcer_mrl::classify(r),
            dcer_mrl::is_acyclic(r)
        );
    }
    let (res, report) = run_dmatch(&w, workers, true);
    println!(
        "\nDMatch on TPCH: F = {:.3}, {} supersteps, {} routed matches",
        res.metrics.f_measure, report.bsp.supersteps, report.bsp.messages
    );
    println!(
        "supersteps > 1 confirm recursion across workers: matches deduced in one round\n\
         unlock rules (phi_b needs customer matches; customers need nation matches) in the next."
    );

    let wb = dblp_workload(scale, 0.4);
    println!("\n== Exp-4 case study: bibliographic rule (phi_c) ==");
    for r in wb.session.rules().rules() {
        println!("  {}", r.display(wb.session.catalog()));
    }
    let (res, _) = run_dmatch(&wb, workers, true);
    println!("DMatch on ACM-DBLP: F = {:.3}", res.metrics.f_measure);
}

/// Run DMatch on the bibliographic workload under a live trace collector
/// and export the observability artifacts: `results/trace.json` (Chrome
/// trace-event JSON — load in Perfetto or `about:tracing`) and
/// `results/metrics.json` (the run's stats structs plus the collector's
/// metrics registry as `dcer_obs` exports it). Self-checks that the trace
/// covers the four pipeline phases so CI can run this as a smoke test.
fn trace_run(scale: f64, workers: usize) {
    use serde_json::{to_value, Map, Value};
    use std::sync::Arc;

    let collector = Arc::new(dcer_obs::InMemoryCollector::new());
    dcer_obs::install(collector.clone());
    let w = dblp_workload(scale, 0.3);
    let (res, report) = run_dmatch(&w, workers, true);
    dcer_obs::uninstall();

    let trace = collector.chrome_trace();
    std::fs::write("results/trace.json", &trace).expect("write results/trace.json");

    let mut m = Map::new();
    m.insert("experiment", Value::from("trace"));
    m.insert("dataset", Value::from("dblp"));
    m.insert("scale", Value::from(scale));
    m.insert("workers", Value::from(workers));
    m.insert("f_measure", Value::from(res.metrics.f_measure));
    m.insert("bsp", to_value(&report.bsp));
    m.insert("batch", to_value(&report.batch));
    m.insert("partition", to_value(&report.partition));
    m.insert("worker_chase", to_value(&report.worker_stats));
    let metrics = serde_json::from_str(&collector.metrics_json()).expect("metrics_json parses");
    m.insert("metrics", metrics);
    let record = Value::Object(m);
    let pretty = serde_json::to_string_pretty(&record).unwrap();
    std::fs::write("results/metrics.json", &pretty).expect("write results/metrics.json");

    let names = collector.span_names();
    for phase in ["partition", "deduce", "exchange", "incdeduce"] {
        assert!(names.contains(&phase), "trace is missing the `{phase}` phase span; got {names:?}");
    }
    let tracks = collector.track_names();
    let worker_tracks = tracks.values().filter(|n| n.starts_with("worker-")).count();
    assert!(worker_tracks > 0, "trace has no per-worker tracks; got {tracks:?}");

    println!("== Trace (one DMatch run on ACM-DBLP) ==");
    println!(
        "spans: {}  instants: {}  tracks: {} ({} worker)  metric series: {}",
        collector.spans().len(),
        collector.instants().len(),
        tracks.len(),
        worker_tracks,
        collector.metrics().len()
    );
    println!("phases: {}", names.join(" "));
    println!(
        "wrote results/trace.json ({} bytes) — open in Perfetto or about:tracing",
        trace.len()
    );
    println!("wrote results/metrics.json ({} bytes)", pretty.len());
}

/// Causal-profile harness: one DMatch run on TPCH with *threaded*
/// executors (real OS threads, real barriers) under a live collector;
/// `run_parallel` builds a [`dcer_obs::RunProfile`] from the span/flow graph and
/// this writes it to `results/profile.json`, prints the makespan
/// decomposition, per-worker utilization, straggler indices and the top-10
/// critical-path spans, and asserts the two profile invariants CI relies
/// on: the phase decomposition sums to within 5% of the measured wall
/// time, and the critical path explains >= 80% of the span extent.
fn profile_run(scale: f64, workers: usize) {
    use std::sync::Arc;

    let w = tpch_workload(scale, 0.3);
    let cfg = dcer_core::DmatchConfig::new(workers).threaded();
    let collector = Arc::new(dcer_obs::InMemoryCollector::new());
    dcer_obs::install(collector.clone());
    let report = w.session.run_parallel(&w.data, &cfg).unwrap();
    dcer_obs::uninstall();

    let profile = report.profile.as_ref().expect("profile built while collector installed");
    let json = profile.to_json();
    std::fs::write("results/profile.json", &json).expect("write results/profile.json");

    let secs = |ns: u64| ns as f64 / 1e9;
    println!("== Causal profile (one DMatch run on TPCH, n = {workers}, threaded) ==");
    println!(
        "wall {:.3}s  span extent {:.3}s  decomposition sum {:.3}s",
        secs(profile.wall_ns),
        secs(profile.extent_ns),
        secs(profile.decomposition_sum_ns())
    );
    println!("makespan decomposition:");
    for phase in dcer_obs::profile::PHASES {
        let ns = profile.phase_ns.get(&phase).copied().unwrap_or(0);
        if ns > 0 {
            println!(
                "  {:<12} {:>8.3}s  {:>5.1}%",
                phase.name(),
                secs(ns),
                100.0 * ns as f64 / profile.extent_ns.max(1) as f64
            );
        }
    }
    for wp in &profile.workers {
        println!(
            "  {:<12} busy {:.3}s  wait {:.3}s  utilization {:.0}%",
            wp.name,
            secs(wp.busy_ns),
            secs(wp.wait_ns),
            100.0 * wp.utilization()
        );
    }
    for sp in &profile.steps {
        println!(
            "  step {:<3} max {:.3}s  mean {:.3}s  straggler index {:.2}",
            sp.step,
            secs(sp.max_busy_ns),
            secs(sp.mean_busy_ns),
            sp.straggler_index()
        );
    }
    let mut top: Vec<_> = profile.critical_path.nodes.iter().collect();
    top.sort_by_key(|n| std::cmp::Reverse(n.dur_ns));
    println!(
        "critical path: {:.3}s over {} spans ({:.0}% of extent); top {}:",
        secs(profile.critical_path.total_ns),
        profile.critical_path.nodes.len(),
        100.0 * profile.critical_coverage(),
        top.len().min(10)
    );
    for n in top.iter().take(10) {
        let arg = n.arg.map_or(String::new(), |(k, v)| format!("  {k}={v}"));
        println!(
            "  {:<18} track {:<3} {:<12} {:>8.3}s{arg}",
            n.name,
            n.track.0,
            n.phase.name(),
            secs(n.dur_ns)
        );
    }
    println!("wrote results/profile.json ({} bytes)", json.len());

    let wall = profile.wall_ns.max(1) as f64;
    let deviation = (profile.decomposition_sum_ns() as f64 - wall).abs() / wall;
    assert!(
        deviation <= 0.05,
        "decomposition ({:.3}s) deviates {:.1}% from wall ({:.3}s); budget is 5%",
        secs(profile.decomposition_sum_ns()),
        100.0 * deviation,
        secs(profile.wall_ns)
    );
    let coverage = profile.critical_coverage();
    assert!(
        coverage >= 0.80,
        "critical path explains only {:.1}% of the span extent; floor is 80%",
        100.0 * coverage
    );
}

fn main() {
    let args = parse_args();
    let _ = std::fs::create_dir_all("results");
    let t0 = Instant::now();
    let mut ran = String::new();
    let run = |name: &str| -> bool { args.command == "all" || args.command == name };

    if run("table5") {
        table5(args.scale, args.workers);
        let _ = write!(ran, "table5 ");
    }
    if run("table6") {
        table6(args.scale, args.workers);
        let _ = write!(ran, "table6 ");
    }
    if run("fig6a") {
        fig6_accuracy(args.scale, args.workers, false);
        let _ = write!(ran, "fig6a ");
    }
    if run("fig6b") {
        fig6_accuracy(args.scale, args.workers, true);
        let _ = write!(ran, "fig6b ");
    }
    if run("fig6c") {
        fig6_time_vs_dup(args.scale, args.workers, false);
        let _ = write!(ran, "fig6c ");
    }
    if run("fig6d") {
        fig6_time_vs_dup(args.scale, args.workers, true);
        let _ = write!(ran, "fig6d ");
    }
    if run("fig6e") {
        fig6_time_vs_preds(args.scale, args.workers, false);
        let _ = write!(ran, "fig6e ");
    }
    if run("fig6f") {
        fig6_time_vs_preds(args.scale, args.workers, true);
        let _ = write!(ran, "fig6f ");
    }
    if run("fig6g") {
        fig6_time_vs_rules(args.scale, args.workers, false);
        let _ = write!(ran, "fig6g ");
    }
    if run("fig6h") {
        fig6_time_vs_rules(args.scale, args.workers, true);
        let _ = write!(ran, "fig6h ");
    }
    if run("fig6i") {
        fig6_scalability(args.scale, false);
        let _ = write!(ran, "fig6i ");
    }
    if run("fig6j") {
        fig6_scalability(args.scale, true);
        let _ = write!(ran, "fig6j ");
    }
    if run("fig6k") {
        fig6_time_vs_scale(args.scale, args.workers, false);
        let _ = write!(ran, "fig6k ");
    }
    if run("fig6l") {
        fig6_time_vs_scale(args.scale, args.workers, true);
        let _ = write!(ran, "fig6l ");
    }
    if run("partitioning") {
        partitioning(args.scale);
        let _ = write!(ran, "partitioning ");
    }
    if run("case_study") {
        case_study(args.scale, args.workers);
        let _ = write!(ran, "case_study ");
    }
    if run("trace") {
        trace_run(args.scale, args.workers);
        let _ = write!(ran, "trace ");
    }
    // Not part of `all`: the profile harness re-runs work `trace` already
    // covers (CI runs it as the `profile-smoke` job).
    if args.command == "profile" {
        profile_run(args.scale, args.workers);
        let _ = write!(ran, "profile ");
    }
    if ran.is_empty() {
        eprintln!(
            "unknown experiment `{}`; available: table5 table6 fig6a..fig6l partitioning case_study trace profile all",
            args.command
        );
        std::process::exit(2);
    }
    eprintln!("\n[{ran}] completed in {:.1}s", t0.elapsed().as_secs_f64());
}
