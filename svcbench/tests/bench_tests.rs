//! The benchmark's own tests: determinism of the schedule, the
//! percentile helper, the tree-walk oracle against the `tree` engine, and
//! a reduced-size run of every workload.

use std::path::PathBuf;

use ruid_service::proto::Engine;
use ruid_service::{run_query, LoadedDoc};
use schemes::NumberingScheme;
use svcbench::client::{Class, Config, Run};
use svcbench::corpus::{self, Fixture, Oracle, Query, Sizes, CORPUS};
use svcbench::schedule::{self, Op, Workload};
use svcbench::stats::{highest_supported_percentile, percentile};
use xmlgen::prng::SplitMix64;

fn counts(ops: &[Op]) -> std::collections::BTreeMap<String, usize> {
    let mut m = std::collections::BTreeMap::new();
    for op in ops {
        *m.entry(format!("{op:?}")).or_insert(0) += 1;
    }
    m
}

#[test]
fn one_seed_gives_one_schedule_and_every_seed_the_same_counts() {
    for w in Workload::ALL {
        let rounds = |seed| {
            let mut rng = SplitMix64::seed_from_u64(seed);
            (0..3)
                .map(|_| schedule::round(w, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(rounds(7), rounds(7), "{}", w.name());
        assert_ne!(rounds(7), rounds(8), "{}: the seed must shuffle", w.name());
        let first = counts(&rounds(7)[0]);
        for seed in 0..20 {
            for round in rounds(seed) {
                assert_eq!(counts(&round), first, "{} seed {seed}", w.name());
            }
        }
    }
}

#[test]
fn one_seed_gives_the_same_keys_and_documents() {
    let a = Fixture::generate("small", 2_000, 5);
    let b = Fixture::generate("small", 2_000, 5);
    assert_eq!(a.xml, b.xml);
    assert_eq!(
        corpus::hot_keys(&a.config, 9),
        corpus::hot_keys(&b.config, 9)
    );
    assert_eq!(
        corpus::fresh_keys(&a.config, 9),
        corpus::fresh_keys(&b.config, 9)
    );
    let hot = corpus::hot_keys(&a.config, 9);
    let fresh = corpus::fresh_keys(&a.config, 9);
    assert!(
        hot.iter().all(|k| !fresh.contains(k)),
        "fresh keys never appear in the hot set"
    );
    let distinct: std::collections::HashSet<_> = hot.iter().collect();
    assert_eq!(distinct.len(), hot.len());
}

#[test]
fn percentile_helper_keeps_ten_samples_beyond() {
    assert_eq!(highest_supported_percentile(10), 50.0);
    assert_eq!(highest_supported_percentile(39), 50.0);
    assert_eq!(highest_supported_percentile(40), 75.0);
    assert_eq!(highest_supported_percentile(99), 75.0);
    assert_eq!(highest_supported_percentile(100), 90.0);
    assert_eq!(highest_supported_percentile(200), 95.0);
    assert_eq!(highest_supported_percentile(999), 95.0);
    assert_eq!(highest_supported_percentile(1000), 99.0);
    assert_eq!(highest_supported_percentile(10_000), 99.9);
    for n in [40usize, 57, 100, 333, 1000, 5000, 20_000] {
        let p = highest_supported_percentile(n);
        let samples: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        let value = percentile(&samples, p).unwrap();
        let beyond = samples.iter().filter(|&&s| s > value).count();
        assert!(beyond >= 10, "n={n} p={p}: {beyond} beyond");
    }
}

#[test]
fn tree_walk_oracle_agrees_with_the_tree_engine() {
    for seed in 0..4u64 {
        let f = Fixture::generate("small", 1_500, seed);
        let oracle = Oracle::new(&f.xml);
        assert_eq!(oracle.node_count(), f.nodes);
        let loaded = LoadedDoc::build("t", &f.xml, corpus::LOAD_DEPTH, false).unwrap();
        let mut keys: Vec<String> = CORPUS.iter().map(|q| (*q).to_owned()).collect();
        keys.extend(corpus::hot_keys(&f.config, seed).into_iter().take(64));
        keys.extend(corpus::fresh_keys(&f.config, seed).into_iter().take(64));
        keys.push("//person[@id='person3']/name".into());
        for key in keys {
            let (hits, _) = run_query(&loaded, &key, Engine::Tree).unwrap();
            let mut line = format!("OK {}", hits.len());
            for n in hits {
                let l = loaded.scheme.label_of(n);
                line.push_str(&format!(" ({},{},{})", l.global, l.local, l.is_root));
            }
            assert_eq!(
                oracle.answer(&Query::parse(&key)),
                line,
                "seed {seed}: {key}"
            );
        }
    }
}

/// The names a run checks its report against are the ones
/// `BENCHMARK.json` lists, in the same order.
#[test]
fn reported_metric_names_match_the_benchmark_file() {
    let file = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let Ok(text) = std::fs::read_to_string(file) else {
        return;
    };
    let names = |section: &str| -> Vec<String> {
        let body = &text[text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"))..];
        let body = &body[..body.find(']').expect("a closed list")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("a closed name")].to_owned())
            .collect()
    };
    assert_eq!(names("end_to_end"), svcbench::report::END_TO_END);
    assert_eq!(names("per_layer"), svcbench::report::PER_LAYER);
}

fn smoke(workload: Workload, server_exe: Option<PathBuf>) {
    let host = if server_exe.is_some() {
        "child"
    } else {
        "local"
    };
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{}-{host}", workload.name()));
    let mut run = Run::prepare(Config {
        workload,
        seed: 3,
        seconds: 0.0,
        sizes: Sizes::SMOKE,
        server_exe,
        work_dir,
    });
    run.setup().unwrap();
    run.global_checks();
    run.run_loop(0.0);
    assert!(run.check_failures.is_empty(), "{:?}", run.check_failures);
    assert!(run.op_failures.is_empty(), "{:?}", run.op_failures);
    assert_eq!(run.failed, 0);
    let mut rng = SplitMix64::seed_from_u64(0);
    assert_eq!(
        run.attempted as usize,
        schedule::round(workload, &mut rng).len()
    );
    for class in Class::ALL {
        assert!(
            run.samples.get(&class).is_some_and(|s| !s.is_empty()),
            "{}: no {}",
            workload.name(),
            class.name()
        );
    }
    assert_eq!(run.setup_s.len(), svcbench::client::SETUPS);
    assert!(run.last_snapshot_bytes > 0);
    let rss = run.host.as_ref().and_then(|h| h.rss_mb());
    assert!(rss.is_some_and(|mb| mb > 0.0), "{rss:?}");
    run.finish();
}

#[test]
fn smoke_read() {
    smoke(Workload::Read, None);
}

#[test]
fn smoke_update() {
    smoke(Workload::Update, None);
}

#[test]
fn smoke_restart() {
    smoke(Workload::Restart, None);
}

/// The end-to-end run's hosting: every server in a child process.
#[test]
fn smoke_update_with_child_servers() {
    smoke(
        Workload::Update,
        Some(PathBuf::from(env!("CARGO_BIN_EXE_svcbench"))),
    );
}

/// Reference figure for the README, not a check: the `ruid` engine on a
/// `//` path at both sizes, which is why that class runs on `small`. Run
/// with `cargo test --release -- --ignored --nocapture ruid_engine_reference`.
#[test]
#[ignore]
fn ruid_engine_reference() {
    for (name, nodes) in [("small", 20_000), ("big", 150_000)] {
        let f = Fixture::generate(name, nodes, 1);
        let loaded = LoadedDoc::build(name, &f.xml, corpus::LOAD_DEPTH, false).unwrap();
        for key in ["//person[@id='person17']/name", "/categories/category/name"] {
            let started = std::time::Instant::now();
            let (hits, _) = run_query(&loaded, key, Engine::Ruid).unwrap();
            println!(
                "{name} ({} nodes) ruid {key}: {} hits in {:?}",
                f.nodes,
                hits.len(),
                started.elapsed()
            );
        }
    }
}
