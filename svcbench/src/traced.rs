//! The traced run: the same set-up and traffic loop as the end-to-end
//! run, then an in-process replay of every class that times the calls
//! into each layer's public functions from here, outside the program.
//!
//! Spans (name, start, end, parent, operation id) are kept in memory and
//! written as JSON lines to `.svcbench-work/trace-<workload>-<seed>.jsonl`
//! when the run ends. No span is added inside the program.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use durable::{Applied, DocState, NodeContent, WalOp};
use plan::PathSummary;
use ruid_core::{PartitionConfig, Ruid2, Ruid2Scheme};
use ruid_service::proto::{self, Engine};
use ruid_service::wire::{self, Decoded, WireRequest, WireResponse};
use ruid_service::{LoadedDoc, ServerConfig};
use schemes::ancestry::AncestryScheme;
use schemes::interval::IntervalScheme;
use schemes::NumberingScheme;
use xmldom::{DocOrder, Document, NodeId};
use xmlstore::XmlStore;
use xpath::{Evaluator, NameIndex, NameIndexed, TreeAxes};

use crate::client::{Class, Host, Run, BATCH, DEPTH, SMALL};
use crate::corpus::LOAD_DEPTH;
use crate::report::Metrics;
use crate::stats::median;

/// Replayed operations per class.
const HOT_OPS: usize = 2000;
const FRESH_OPS: usize = 200;
const MQUERY_OPS: usize = 100;
const SPAN_OPS: usize = 40;
const RUID_OPS: usize = 5;
const INGEST_OPS: usize = 3;
const RECOVER_OPS: usize = 2;

/// One closed span.
struct SpanRec {
    id: u32,
    parent: Option<u32>,
    op: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<(u32, &'static str, u64)>,
    next_id: u32,
    op: u64,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_id: 0,
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the root span of a new operation.
    fn begin_op(&mut self, name: &'static str) {
        self.op += 1;
        self.enter(name);
    }

    fn enter(&mut self, name: &'static str) {
        self.next_id += 1;
        let start = self.now();
        self.open.push((self.next_id, name, start));
    }

    fn exit(&mut self) {
        let end = self.now();
        let (id, name, start_ns) = self.open.pop().expect("open span");
        let parent = self.open.last().map(|&(p, _, _)| p);
        self.spans.push(SpanRec {
            id,
            parent,
            op: self.op,
            name,
            start_ns,
            end_ns: end,
        });
    }

    /// Times one call as a child of the open span.
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Median duration of the spans called `name`, in microseconds.
    fn p50_us(&self, name: &str) -> Option<f64> {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        median(&d)
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"op\": {}, \"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.op, s.id, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// The `QUERY`/`LABEL` rendering, done here from the public label API.
fn format_hits(loaded: &LoadedDoc, hits: &[NodeId]) -> String {
    let mut out = format!("OK {}", hits.len());
    for &n in hits {
        out.push(' ');
        out.push_str(&proto::fmt_label(&loaded.scheme.label_of(n)));
    }
    out
}

fn decode(buf: &[u8]) -> WireRequest {
    match wire::decode_request(buf, usize::MAX) {
        Decoded::Frame { frame, .. } => frame.request,
        other => panic!("a frame this benchmark encoded failed to decode: {other:?}"),
    }
}

fn encode_frame(request: &WireRequest) -> Vec<u8> {
    let mut buf = Vec::new();
    wire::encode_request(1, request, &mut buf);
    buf
}

fn parse_label(text: &str) -> Option<Ruid2> {
    let inner = text.strip_prefix('(')?.strip_suffix(')')?;
    let mut it = inner.split(',');
    let g = it.next()?.parse().ok()?;
    let l = it.next()?.parse().ok()?;
    let r = it.next()?.parse().ok()?;
    Some(Ruid2::new(g, l, r))
}

/// Plans and executes `key` the way the planned engine does, timing
/// parse, plan, execution and formatting.
fn planned(tr: &mut Tracer, loaded: &LoadedDoc, key: &str) -> Result<(String, f64), String> {
    let path = tr
        .time("xpath.parse", || xpath::parse(key))
        .map_err(|e| e.to_string())?;
    let compiled = tr.time("plan.plan", || {
        plan::plan(&path, &loaded.summary, &loaded.doc)
    });
    let (hits, stats) = tr
        .time("plan.exec", || {
            let ev = Evaluator::new(
                &loaded.doc,
                NameIndexed::new(
                    TreeAxes::with_order(&loaded.doc, &loaded.order),
                    &loaded.doc,
                    &loaded.index,
                ),
            );
            plan::execute(&compiled, &loaded.doc, &loaded.summary, &loaded.order, &ev)
        })
        .map_err(|e| e.to_string())?;
    let examined: usize = stats.op_actuals.iter().sum::<usize>() + stats.tail_actual.unwrap_or(0);
    let line = tr.time("service.format", || format_hits(loaded, &hits));
    Ok((line, examined as f64 / hits.len().max(1) as f64))
}

/// The bundle one commit produces, staged the way
/// `LoadedDoc::apply_update` stages it, one timed call per layer.
struct Staged {
    doc: Document,
    scheme: Ruid2Scheme,
    order: DocOrder,
    index: NameIndex,
    inserted: Option<NodeId>,
    relabeled: usize,
}

fn stage_commit(tr: &mut Tracer, loaded: &LoadedDoc, op: &WalOp) -> Result<Staged, String> {
    let mut state = tr.time("xmldom.arena_clone", || DocState {
        id: 0,
        path: loaded.path.clone(),
        config: *loaded.scheme.config(),
        with_store: loaded.store.is_some(),
        doc: loaded.doc.clone(),
        scheme: loaded.scheme.clone(),
    });
    let applied = tr.time("core.relabel", || state.apply_detailed(op))?;
    let DocState { doc, scheme, .. } = state;
    let order = tr.time("xmldom.order_build", || DocOrder::build(&doc));
    let index = tr.time("xpath.name_index_patch", || {
        let mut index = loaded.index.clone();
        match &applied {
            Applied::Inserted { node, .. } => index.patch_insert(&doc, &order, *node),
            Applied::Deleted { elements, .. } => index.patch_delete(elements),
            Applied::Repartitioned { .. } => {}
        }
        index
    });
    tr.time("plan.summary_patch", || {
        let mut summary = loaded.summary.clone();
        let patched = match &applied {
            Applied::Inserted { node, .. } => summary.patch_insert(&doc, &order, *node),
            Applied::Deleted { elements, .. } => {
                let removed: Vec<NodeId> = elements.iter().map(|&(_, n)| n).collect();
                summary.patch_delete(&removed)
            }
            Applied::Repartitioned { .. } => true,
        };
        if !patched {
            summary = PathSummary::build(&doc);
        }
        summary
    });
    tr.time("schemes.span_update", || {
        let mut interval = loaded.interval.clone();
        let mut ancestry = loaded.ancestry.clone();
        match &applied {
            Applied::Inserted { node, .. } => {
                interval.on_insert(&doc, *node);
                ancestry.on_insert(&doc, *node);
            }
            Applied::Deleted { parent, root, .. } => {
                interval.on_delete(&doc, *parent, *root);
                ancestry.on_delete(&doc, *parent, *root);
            }
            Applied::Repartitioned { .. } => {}
        }
        (interval, ancestry)
    });
    if loaded.store.is_some() {
        tr.time("xmlstore.load", || {
            let mut store = XmlStore::in_memory();
            store.load_document(&doc, &scheme);
            store
        });
    }
    let inserted = match &applied {
        Applied::Inserted { node, .. } => Some(*node),
        _ => None,
    };
    let relabeled = applied.stats().relabeled;
    Ok(Staged {
        doc,
        scheme,
        order,
        index,
        inserted,
        relabeled,
    })
}

/// Replays one commit staged and through `LoadedDoc::apply_update`, and
/// fails unless both give the same labels, order and name index.
fn replay_commit(
    tr: &mut Tracer,
    loaded: &LoadedDoc,
    op: &WalOp,
    relabeled: &mut Vec<f64>,
) -> Result<(LoadedDoc, Option<NodeId>), String> {
    tr.begin_op("op.commit");
    let staged = stage_commit(tr, loaded, op);
    tr.exit();
    let staged = staged?;
    tr.begin_op("op.apply_update");
    let reference = tr.time("service.apply_update", || {
        loaded.apply_update(op, loaded.generation + 1)
    });
    tr.exit();
    let (reference, _) = reference?;
    relabeled.push(staged.relabeled as f64);
    let root = reference.doc.root_element().ok_or("no root element")?;
    let nodes: Vec<NodeId> = reference.doc.descendants(root).collect();
    let same = staged.doc.descendants(root).eq(nodes.iter().copied())
        && nodes.iter().all(|&n| {
            staged.scheme.label_of(n) == reference.scheme.label_of(n)
                && staged.order.rank(n) == reference.order.rank(n)
        })
        && reference.doc.names().len() == staged.doc.names().len()
        && format!("{:?}", staged.index) == format!("{:?}", reference.index);
    if !same {
        return Err("commit replay differs from LoadedDoc::apply_update".into());
    }
    Ok((reference, staged.inserted))
}

/// Runs the traffic loop for half the run, replays every class, and
/// returns the per-layer metrics.
pub fn run(run: &mut Run, calib: f64) -> Metrics {
    run.run_loop(run.config.seconds / 2.0);
    let mut tr = Tracer::new();
    let mut m = Metrics::new();
    let mut put = |name: String, value: Option<f64>, unit: &'static str| {
        if let Some(v) = value {
            m.insert(name, (v, unit));
        }
    };
    put("host.calib_ms".into(), Some(calib), "ms");

    let cache = run.cache_totals();
    let lookups = (cache.hits + cache.misses).max(1) as f64;
    put(
        "plan.cache_hit_ratio".into(),
        Some(cache.hits as f64 / lookups),
        "ratio",
    );
    put(
        "plan.cache_evictions".into(),
        Some(cache.evictions as f64),
        "count",
    );
    put(
        "plan.cache_invalidations".into(),
        Some(cache.invalidations as f64),
        "count",
    );
    let wal = |f: fn(&crate::client::WalDelta) -> u64| {
        median(&run.wal.iter().map(|w| f(w) as f64).collect::<Vec<_>>())
    };
    let wal_append_us = wal(|w| w.append_ns).map(|ns| ns / 1e3);
    let wal_fsync_us = wal(|w| w.fsync_ns).map(|ns| ns / 1e3);
    put("durable.wal_append_us".into(), wal_append_us, "us");
    put("durable.wal_fsync_us".into(), wal_fsync_us, "us");
    put("durable.wal_bytes_per_commit".into(), wal(|w| w.bytes), "B");
    for class in [Class::Hot, Class::Fresh, Class::MQuery, Class::Span] {
        let bytes = run.response_bytes.get(&class).and_then(|b| median(b));
        put(
            format!("service.response_bytes.{}", class.name()),
            bytes,
            "B",
        );
    }

    let mut failures = Vec::new();
    let mut rows = Vec::new();
    let mut steps = Vec::new();
    let mut relabeled = Vec::new();
    let local = run.host.as_ref().and_then(Host::local);
    let local = local.expect("the traced run hosts its server in this process");
    let catalog = Arc::clone(local.catalog());
    let plan_cache = Arc::clone(local.plan_cache());
    let t = run.target();
    let id = run.docs[t].id;

    // Hot hits: decode, pin, cache lookup plus copy, encode. A key the
    // cache lost is evaluated and inserted first, untimed, as a miss would.
    for _ in 0..HOT_OPS {
        let key = run.draw_hot_key();
        let frame = encode_frame(&WireRequest::Query {
            doc: id,
            engine: Engine::Planned,
            xpath: key.clone(),
        });
        let loaded = catalog.get(id).expect("target document");
        if plan_cache.lookup(id, &key, loaded.generation).is_none() {
            match planned(&mut Tracer::new(), &loaded, &key) {
                Ok((line, _)) => plan_cache.insert(id, &key, loaded.generation, line),
                Err(e) => failures.push(e),
            }
        }
        tr.begin_op("op.query_hot");
        tr.time("service.wire_decode", || decode(&frame));
        let loaded = tr
            .time("service.catalog_pin", || catalog.get(id))
            .expect("target document");
        let hit = tr.time("plan.cache_lookup", || {
            plan_cache
                .lookup(id, &key, loaded.generation)
                .map(|h| (*h).clone())
        });
        let line = hit.unwrap_or_default();
        if let Err(e) = run.check(t, &key, &line) {
            failures.push(e);
        }
        let mut out = Vec::new();
        tr.time("service.wire_encode", || {
            wire::encode_response(1, &WireResponse::Line(line), &mut out)
        });
        tr.exit();
    }

    // Fresh keys: the whole planned path, checked against the oracle.
    for _ in 0..FRESH_OPS {
        let key = run.replay_fresh_key();
        let frame = encode_frame(&WireRequest::Query {
            doc: id,
            engine: Engine::Planned,
            xpath: key.clone(),
        });
        tr.begin_op("op.query_fresh");
        tr.time("service.wire_decode", || decode(&frame));
        let loaded = tr
            .time("service.catalog_pin", || catalog.get(id))
            .expect("target document");
        let result = planned(&mut tr, &loaded, &key);
        let mut out = Vec::new();
        if let Ok((line, _)) = &result {
            let response = WireResponse::Line(line.clone());
            tr.time("service.wire_encode", || {
                wire::encode_response(1, &response, &mut out)
            });
        }
        tr.exit();
        match result {
            Ok((line, ratio)) => {
                rows.push(ratio);
                if let Err(e) = run.check(t, &key, &line) {
                    failures.push(e);
                }
            }
            Err(e) => failures.push(e),
        }
    }

    // Batches: one frame decode, one pin, a lookup per entry, one encode.
    // Keys the cache lost are evaluated and inserted first, untimed, until
    // the whole batch is cached (an insert may evict an older batch-mate);
    // an entry that still misses or differs from the oracle fails the batch.
    for _ in 0..MQUERY_OPS {
        let keys: Vec<String> = (0..BATCH).map(|_| run.draw_cached_key()).collect();
        let loaded = catalog.get(id).expect("target document");
        for _ in 0..=BATCH {
            let missing: Vec<&String> = keys
                .iter()
                .filter(|k| plan_cache.lookup(id, k, loaded.generation).is_none())
                .collect();
            if missing.is_empty() {
                break;
            }
            for key in missing {
                match planned(&mut Tracer::new(), &loaded, key) {
                    Ok((line, _)) => plan_cache.insert(id, key, loaded.generation, line),
                    Err(e) => failures.push(e),
                }
            }
        }
        let frame = encode_frame(&WireRequest::MQuery {
            doc: id,
            xpaths: keys.clone(),
        });
        tr.begin_op("op.mquery");
        tr.time("service.wire_decode_batch", || decode(&frame));
        let loaded = tr
            .time("service.catalog_pin", || catalog.get(id))
            .expect("target document");
        let hits: Vec<Option<String>> = keys
            .iter()
            .map(|k| {
                tr.time("plan.cache_lookup_batch", || {
                    plan_cache
                        .lookup(id, k, loaded.generation)
                        .map(|h| (*h).clone())
                })
            })
            .collect();
        let lines: Vec<String> = hits.iter().map(|h| h.clone().unwrap_or_default()).collect();
        let mut out = Vec::new();
        tr.time("service.wire_encode_batch", || {
            wire::encode_response(1, &WireResponse::Batch(lines), &mut out)
        });
        tr.exit();
        let checked = keys.iter().zip(&hits).try_for_each(|(key, hit)| match hit {
            Some(line) => run.check(t, key, line),
            None => Err(format!("MQUERY replay: {key} missed the cache")),
        });
        if let Err(e) = checked {
            failures.push(e);
        }
    }

    // Span engines and the ruid engine, with their axis-step counts.
    for i in 0..SPAN_OPS + RUID_OPS {
        let ruid = i >= SPAN_OPS;
        let (d, key, engine) = if ruid {
            (SMALL, run.ruid_key(), Engine::Ruid)
        } else {
            let engine = if i.is_multiple_of(2) {
                Engine::Interval
            } else {
                Engine::Ancestry
            };
            (t, run.span_key(), engine)
        };
        let doc = run.docs[d].id;
        tr.begin_op(if ruid {
            "op.ruid_query"
        } else {
            "op.span_query"
        });
        let loaded = tr
            .time("service.catalog_pin", || catalog.get(doc))
            .expect("document");
        let eval = if ruid {
            "xpath.ruid_eval"
        } else {
            "xpath.span_eval"
        };
        let result = tr.time(eval, || ruid_service::run_query(&loaded, &key, engine));
        let fmt = if ruid {
            "service.format_ruid"
        } else {
            "service.format_span"
        };
        let line = result
            .as_ref()
            .ok()
            .map(|(hits, _)| tr.time(fmt, || format_hits(&loaded, hits)));
        tr.exit();
        match (result, line) {
            (Ok((_, s)), Some(line)) => {
                steps.push(s.total() as f64);
                if let Err(e) = run.check(d, &key, &line) {
                    failures.push(e);
                }
            }
            (Err(e), _) => failures.push(e),
            (Ok(_), None) => unreachable!("a formatted line exists for every result"),
        }
    }

    // Commits: insert then delete, staged and through apply_update.
    let pairs = if run.config.workload.targets_big() {
        3
    } else {
        8
    };
    for _ in 0..pairs {
        let target = run.insert_target(t);
        let outcome = (|| -> Result<(), String> {
            let parent = parse_label(&run.label_of(t, &target)?).ok_or("bad label")?;
            let loaded = catalog.get(id).ok_or("target document")?;
            let content = NodeContent::Element {
                name: "svcmark".into(),
                attributes: Vec::new(),
            };
            let insert = WalOp::Insert {
                doc_id: id,
                parent,
                position: 1000,
                content,
            };
            let (after, node) = replay_commit(&mut tr, &loaded, &insert, &mut relabeled)?;
            let label = after.scheme.label_of(node.ok_or("insert added no node")?);
            let delete = WalOp::Delete { doc_id: id, label };
            replay_commit(&mut tr, &after, &delete, &mut relabeled)?;
            Ok(())
        })();
        if let Err(e) = outcome {
            failures.push(e);
        }
    }

    // Ingest: parse and bundle build of the small file, then each build
    // on its own.
    let xml = std::fs::read_to_string(&run.xml_paths[SMALL]).unwrap_or_default();
    let exec = par::Executor::new(ServerConfig::default().build_threads);
    for _ in 0..INGEST_OPS {
        tr.begin_op("op.ingest");
        let doc = tr.time("xmldom.parse", || Document::parse(&xml));
        let built = doc.map_err(|e| e.to_string()).and_then(|doc| {
            tr.time("service.build_bundle", || {
                LoadedDoc::build_from_doc("small", doc, LOAD_DEPTH, true, &exec)
            })
        });
        tr.exit();
        match built {
            Ok(b) if b.doc.node_count() == run.gen_nodes[SMALL] => {}
            Ok(_) => failures.push("ingest replay node count differs from the generator".into()),
            Err(e) => failures.push(e),
        }
        let Ok(doc) = Document::parse(&xml) else {
            continue;
        };
        tr.begin_op("op.ingest_parts");
        let config = PartitionConfig::by_depth(LOAD_DEPTH);
        let _ = tr.time("core.ruid_build", || {
            Ruid2Scheme::try_build_with(&doc, &config, &exec)
        });
        tr.time("schemes.span_build", || {
            (IntervalScheme::build(&doc), AncestryScheme::build(&doc))
        });
        tr.time("xpath.name_index_build", || {
            NameIndex::build_with(&doc, &exec)
        });
        tr.time("plan.summary_build", || PathSummary::build(&doc));
        tr.exit();
    }

    // Recovery: snapshot plus WAL tail read back, then the serving
    // bundles rebuilt, with the server stopped; then restart it.
    drop(catalog);
    drop(plan_cache);
    run.stop_server();
    let mut replayed = Vec::new();
    for _ in 0..RECOVER_OPS {
        tr.begin_op("op.recover");
        let recovered = tr.time("durable.recover", || durable::recover(&run.data_dir));
        match recovered {
            Ok(r) => {
                replayed.push(r.report.replayed as f64);
                tr.time("service.from_recovered", || {
                    r.docs
                        .into_iter()
                        .map(|s| LoadedDoc::from_recovered(s.path, s.doc, s.scheme, s.with_store))
                        .collect::<Vec<_>>()
                });
            }
            Err(e) => failures.push(format!("recover: {e}")),
        }
        tr.exit();
    }
    if let Err(e) = run.restart() {
        failures.push(e);
    }

    let us = |name: &str| tr.p50_us(name);
    let ms = |name: &str| tr.p50_us(name).map(|v| v / 1e3);
    for (metric, span) in [
        ("service.wire_decode_us", "service.wire_decode"),
        ("service.wire_encode_us", "service.wire_encode"),
        ("service.catalog_pin_us", "service.catalog_pin"),
        ("service.format_us", "service.format"),
        ("plan.cache_lookup_us", "plan.cache_lookup"),
        ("plan.plan_us", "plan.plan"),
        ("plan.exec_us", "plan.exec"),
        ("plan.summary_patch_us", "plan.summary_patch"),
        ("xpath.parse_us", "xpath.parse"),
        ("xpath.span_eval_us", "xpath.span_eval"),
        ("xpath.name_index_patch_us", "xpath.name_index_patch"),
        ("core.relabel_us", "core.relabel"),
    ] {
        put(metric.into(), us(span), "us");
    }
    for (metric, span) in [
        ("service.apply_update_ms", "service.apply_update"),
        ("service.build_bundle_ms", "service.build_bundle"),
        ("service.from_recovered_ms", "service.from_recovered"),
        ("plan.summary_build_ms", "plan.summary_build"),
        ("xpath.ruid_eval_ms", "xpath.ruid_eval"),
        ("xpath.name_index_build_ms", "xpath.name_index_build"),
        ("core.ruid_build_ms", "core.ruid_build"),
        ("schemes.span_update_ms", "schemes.span_update"),
        ("schemes.span_build_ms", "schemes.span_build"),
        ("xmldom.arena_clone_ms", "xmldom.arena_clone"),
        ("xmldom.order_build_ms", "xmldom.order_build"),
        ("xmldom.parse_ms", "xmldom.parse"),
        ("xmlstore.load_ms", "xmlstore.load"),
        ("durable.recover_ms", "durable.recover"),
    ] {
        put(metric.into(), ms(span), "ms");
    }
    put(
        "plan.rows_examined_per_result".into(),
        median(&rows),
        "ratio",
    );
    put("xpath.axis_steps_per_query".into(), median(&steps), "count");
    put(
        "core.relabeled_per_commit".into(),
        median(&relabeled),
        "count",
    );
    put(
        "durable.replayed_records".into(),
        median(&replayed),
        "count",
    );

    // What each class's end-to-end median leaves after its stages.
    let sum = |names: &[&str]| -> Option<f64> { names.iter().map(|n| us(n)).sum() };
    let query = [
        "service.wire_decode",
        "service.catalog_pin",
        "plan.cache_lookup",
        "service.wire_encode",
    ];
    let stages: [(Class, Option<f64>); 10] = [
        (Class::Hot, sum(&query)),
        (
            Class::Text,
            sum(&["service.catalog_pin", "plan.cache_lookup"]),
        ),
        (
            Class::Fresh,
            sum(&[
                "service.wire_decode",
                "service.catalog_pin",
                "xpath.parse",
                "plan.plan",
                "plan.exec",
                "service.format",
                "service.wire_encode",
            ]),
        ),
        (
            Class::MQuery,
            sum(&[
                "service.wire_decode_batch",
                "service.catalog_pin",
                "service.wire_encode_batch",
            ])
            .zip(us("plan.cache_lookup_batch"))
            .map(|(a, l)| a + BATCH as f64 * l),
        ),
        (Class::Pipeline, sum(&query).map(|s| s * DEPTH as f64)),
        (
            Class::Span,
            sum(&[
                "service.catalog_pin",
                "xpath.span_eval",
                "service.format_span",
            ]),
        ),
        (
            Class::Ruid,
            sum(&[
                "service.catalog_pin",
                "xpath.ruid_eval",
                "service.format_ruid",
            ]),
        ),
        (
            Class::Commit,
            sum(&[
                "xmldom.arena_clone",
                "core.relabel",
                "xmldom.order_build",
                "xpath.name_index_patch",
                "plan.summary_patch",
                "schemes.span_update",
                "xmlstore.load",
            ])
            .zip(wal_append_us.zip(wal_fsync_us))
            .map(|(s, (a, f))| s + a + f),
        ),
        (
            Class::Ingest,
            sum(&["xmldom.parse", "service.build_bundle"]),
        ),
        (
            Class::Recover,
            sum(&["durable.recover", "service.from_recovered"]),
        ),
    ];
    for (class, stage_sum) in stages {
        let e2e = run.samples.get(&class).and_then(|s| median(s));
        put(
            format!("service.unaccounted_us.{}", class.name()),
            e2e.zip(stage_sum).map(|(e, s)| e - s),
            "us",
        );
    }

    let trace_path = std::path::PathBuf::from(".svcbench-work").join(format!(
        "trace-{}-{}.jsonl",
        run.config.workload.name(),
        run.config.seed
    ));
    if let Err(e) = tr.write(&trace_path) {
        eprintln!("svcbench: cannot write {}: {e}", trace_path.display());
    }
    run.attempted += tr.op;
    run.failed += failures.len() as u64;
    for f in failures.into_iter().take(8) {
        run.op_failures.push(format!("traced replay: {f}"));
    }
    m
}
