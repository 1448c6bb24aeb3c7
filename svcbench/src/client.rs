//! The end-to-end run: a real server with durability on, one client
//! process driving it over both protocols in a closed loop.

use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ruid_service::proto::Engine;
use ruid_service::wire::{WireRequest, WireResponse};
use ruid_service::{BinaryClient, Client, FsyncPolicy, Server, ServerConfig, ServerHandle};
use xmlgen::prng::SplitMix64;

use crate::calib;
use crate::corpus::{self, Answers, Fixture, Oracle, Sizes, Zipf, CORPUS};
use crate::schedule::{self, Op, Workload};

/// `MQUERY` batch size.
pub const BATCH: usize = 16;
/// Pipeline depth.
pub const DEPTH: usize = 32;
/// Set-ups per run; `setup_s` is their median. The first starts the
/// serving server; the others are spread through the loop.
pub const SETUPS: usize = 9;
/// How far back text, batch and pipeline requests draw among the hot
/// keys already asked at the current generation (half the cache).
pub const RECENT: usize = 512;
/// Hot keys queried by the setup's warm pass.
pub const WARM_PASS: usize = 128;

/// Index of the `big` document in per-document arrays.
pub const BIG: usize = 0;
/// Index of the `small` document.
pub const SMALL: usize = 1;

/// The timed operation classes. Each feeds one end-to-end metric, or only
/// its reference line where the metric was dropped as unsteady.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    /// `query_hot_p50_us`.
    Hot,
    /// Text-protocol hot query (reference line).
    Text,
    /// `query_fresh_p50_us` (its p90 is on the reference line).
    Fresh,
    /// `mquery_p50_us`.
    MQuery,
    /// `pipeline_qps` (one sample = one pipeline round).
    Pipeline,
    /// Interval/ancestry engine query (reference line).
    Span,
    /// Ruid engine query on `small` (reference line).
    Ruid,
    /// `commit_p50_ms`.
    Commit,
    /// `LOAD` of `small` (reference line).
    Ingest,
    /// `recover_p50_ms`.
    Recover,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 10] = [
        Class::Hot,
        Class::Text,
        Class::Fresh,
        Class::MQuery,
        Class::Pipeline,
        Class::Span,
        Class::Ruid,
        Class::Commit,
        Class::Ingest,
        Class::Recover,
    ];

    /// Short name used in reference lines and per-layer metric names.
    pub fn name(self) -> &'static str {
        match self {
            Class::Hot => "query_hot",
            Class::Text => "text_query",
            Class::Fresh => "query_fresh",
            Class::MQuery => "mquery",
            Class::Pipeline => "pipeline",
            Class::Span => "span_query",
            Class::Ruid => "ruid_query",
            Class::Commit => "commit",
            Class::Ingest => "ingest",
            Class::Recover => "recover",
        }
    }
}

/// Run parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// The traffic mix.
    pub workload: Workload,
    /// Seed for documents, keys and schedule.
    pub seed: u64,
    /// Length of the measured loop.
    pub seconds: f64,
    /// Document sizes.
    pub sizes: Sizes,
    /// The `svcbench` executable to host servers in child processes;
    /// `None` hosts them in this process.
    pub server_exe: Option<PathBuf>,
    /// Scratch directory for the XML files and the data directories;
    /// removed at the end of the run.
    pub work_dir: PathBuf,
}

/// One commit's WAL cost, read from the server's durability counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalDelta {
    /// Nanoseconds appending.
    pub append_ns: u64,
    /// Nanoseconds in fsync.
    pub fsync_ns: u64,
    /// Bytes appended.
    pub bytes: u64,
}

/// Result-cache counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheTotals {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted for room.
    pub evictions: u64,
    /// Entries dropped because their document changed.
    pub invalidations: u64,
}

/// Per-document state known to the client.
pub struct DocSide {
    /// Catalog id.
    pub id: u64,
    /// Expected answers, from the tree-walk oracle.
    answers: Answers,
    /// The hot set, most popular first.
    hot: Vec<String>,
    /// Keys never drawn hot.
    fresh: Vec<String>,
    fresh_cursor: usize,
    /// Keys asked at the current generation.
    asked: HashSet<String>,
    /// The hot-set keys among them, in the order first asked.
    cached: Vec<String>,
    /// Nodes `STATS` should report.
    pub nodes: usize,
    /// Set once a commit relabeled existing nodes: answers then keep
    /// their counts but not necessarily the oracle's labels.
    relabeled: bool,
    people: usize,
}

impl DocSide {
    fn forget_asked(&mut self) {
        self.asked.clear();
        self.cached.clear();
    }

    fn note_asked(&mut self, key: &str, hot: bool) {
        if self.asked.insert(key.to_owned()) && hot {
            self.cached.push(key.to_owned());
        }
    }
}

/// Where a server of the run lives.
pub enum Host {
    /// In this process, where the traced run reads its internals.
    Local(ServerHandle),
    /// In a process of its own (`svcbench --serve <data-dir>`), which
    /// stops when its standard input closes.
    Child {
        /// The server process.
        child: Child,
        /// The address it listens on.
        addr: SocketAddr,
    },
}

impl Host {
    /// Starts a server with durability on over `data_dir`: in this
    /// process, or in a child running `server_exe`.
    pub fn start(data_dir: &Path, server_exe: Option<&Path>) -> Result<Host, String> {
        let Some(exe) = server_exe else {
            return Ok(Host::Local(io(Server::start(server_config(data_dir)))?));
        };
        let mut child = io(Command::new(exe)
            .arg("--serve")
            .arg(data_dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn())?;
        let mut line = String::new();
        if let Some(out) = child.stdout.take() {
            let _ = BufReader::new(out).read_line(&mut line);
        }
        match line.trim().strip_prefix("listening ").map(str::parse) {
            Some(Ok(addr)) => Ok(Host::Child { child, addr }),
            _ => {
                Host::Child {
                    child,
                    addr: SocketAddr::from(([127, 0, 0, 1], 0)),
                }
                .stop();
                Err(format!("server process did not start: {line:?}"))
            }
        }
    }

    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        match self {
            Host::Local(handle) => handle.addr(),
            Host::Child { addr, .. } => *addr,
        }
    }

    /// The server, when it runs in this process.
    pub fn local(&self) -> Option<&ServerHandle> {
        match self {
            Host::Local(handle) => Some(handle),
            Host::Child { .. } => None,
        }
    }

    /// Resident memory in MiB of the process the server runs in.
    pub fn rss_mb(&self) -> Option<f64> {
        match self {
            Host::Local(_) => calib::rss_mb(std::process::id()),
            Host::Child { child, .. } => calib::rss_mb(child.id()),
        }
    }

    /// Stops the server and waits until it has ended.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for Host {
    /// A child server stops once its standard input closes; an
    /// in-process one stops when its handle drops.
    fn drop(&mut self) {
        if let Host::Child { child, .. } = self {
            drop(child.stdin.take());
            let _ = child.wait();
        }
    }
}

/// A server just set up, with its connections.
struct Serving {
    host: Host,
    text: Client,
    bin: BinaryClient,
    ids: [u64; 2],
}

/// A run in progress.
pub struct Run {
    /// Parameters.
    pub config: Config,
    /// Data directory of the serving server.
    pub data_dir: PathBuf,
    /// XML files of `big` and `small`.
    pub xml_paths: [PathBuf; 2],
    /// Generator node counts of `big` and `small`.
    pub gen_nodes: [usize; 2],
    /// The serving server.
    pub host: Option<Host>,
    text: Option<Client>,
    bin: Option<BinaryClient>,
    /// Client-side document state.
    pub docs: [DocSide; 2],
    zipf: Zipf,
    rng: SplitMix64,
    cold_next: usize,
    span_turn: usize,
    pending_delete: Option<String>,
    /// Timed samples per class, in microseconds.
    pub samples: BTreeMap<Class, Vec<f64>>,
    /// `setup_s` samples, in seconds.
    pub setup_s: Vec<f64>,
    /// WAL deltas of every commit.
    pub wal: Vec<WalDelta>,
    /// Relabeled-node counts reported by commits.
    pub relabeled: Vec<u64>,
    /// Response bytes per class.
    pub response_bytes: BTreeMap<Class, Vec<f64>>,
    /// Bytes of the newest snapshot file.
    pub last_snapshot_bytes: u64,
    /// Result-cache counters of the servers already stopped.
    cache: CacheTotals,
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations whose request or check failed.
    pub failed: u64,
    /// Untimed global checks that failed (engine agreement, restart
    /// equality, load counts at setup).
    pub check_failures: Vec<String>,
    /// Failure messages of operations (the first few).
    pub op_failures: Vec<String>,
}

type OpResult = Result<(), String>;

fn io<T>(r: std::io::Result<T>) -> Result<T, String> {
    r.map_err(|e| format!("io: {e}"))
}

/// The serving configuration: durability on, every commit fsync'd.
pub fn server_config(data_dir: &Path) -> ServerConfig {
    ServerConfig {
        data_dir: Some(data_dir.to_path_buf()),
        fsync: FsyncPolicy::Always,
        ..ServerConfig::default()
    }
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split(' ')
        .find_map(|t| t.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

impl Run {
    /// Generates the documents, writes them, and builds the oracles.
    /// Nothing here is timed.
    pub fn prepare(config: Config) -> Run {
        let _ = std::fs::remove_dir_all(&config.work_dir);
        std::fs::create_dir_all(&config.work_dir).expect("create work dir");
        let big = Fixture::generate("big", config.sizes.big, config.seed);
        let small = Fixture::generate("small", config.sizes.small, config.seed ^ 0x5A11);
        let side = |f: &Fixture, salt: u64| {
            let path = config.work_dir.join(format!("{}.xml", f.name));
            std::fs::write(&path, &f.xml).expect("write XML");
            let side = DocSide {
                id: 0,
                answers: Answers::new(Oracle::new(&f.xml)),
                hot: corpus::hot_keys(&f.config, config.seed ^ salt),
                fresh: corpus::fresh_keys(&f.config, config.seed ^ salt),
                fresh_cursor: 0,
                asked: HashSet::new(),
                cached: Vec::new(),
                nodes: 0,
                relabeled: false,
                people: f.config.people,
            };
            (path, side)
        };
        let (big_path, big_side) = side(&big, 1);
        let (small_path, small_side) = side(&small, 2);
        let zipf = Zipf::new(big_side.hot.len().max(small_side.hot.len()));
        Run {
            data_dir: config.work_dir.join("data"),
            xml_paths: [big_path, small_path],
            gen_nodes: [big.nodes, small.nodes],
            host: None,
            text: None,
            bin: None,
            docs: [big_side, small_side],
            zipf,
            rng: SplitMix64::seed_from_u64(config.seed ^ 0x5C4E_D01E),
            cold_next: 0,
            span_turn: 0,
            pending_delete: None,
            samples: BTreeMap::new(),
            setup_s: Vec::new(),
            wal: Vec::new(),
            relabeled: Vec::new(),
            response_bytes: BTreeMap::new(),
            last_snapshot_bytes: 0,
            cache: CacheTotals::default(),
            attempted: 0,
            failed: 0,
            check_failures: Vec::new(),
            op_failures: Vec::new(),
            config,
        }
    }

    /// Index of the workload's target document.
    pub fn target(&self) -> usize {
        if self.config.workload.targets_big() {
            BIG
        } else {
            SMALL
        }
    }

    fn text(&mut self) -> &mut Client {
        self.text.as_mut().expect("connected")
    }

    fn bin(&mut self) -> &mut BinaryClient {
        self.bin.as_mut().expect("connected")
    }

    fn connect(&mut self) -> OpResult {
        let addr = self.host.as_ref().expect("server").addr();
        self.text = Some(io(Client::connect(addr))?);
        self.bin = Some(io(BinaryClient::connect(addr))?);
        Ok(())
    }

    /// Stops the serving server (its cache counters are kept).
    pub fn stop_server(&mut self) {
        self.text = None;
        self.bin = None;
        if let Some(host) = self.host.take() {
            if let Some(handle) = host.local() {
                self.add_cache_stats(handle);
            }
            host.stop();
        }
    }

    /// One timed set-up on an empty `data_dir`: server start, `LOAD` of
    /// both documents, one binary pass over the top of the target's hot
    /// set. Records the time and checks every answer.
    fn set_up(&mut self, data_dir: &Path) -> Result<Serving, String> {
        let _ = std::fs::remove_dir_all(data_dir);
        let started = Instant::now();
        let host = Host::start(data_dir, self.config.server_exe.as_deref())?;
        let mut text = io(Client::connect(host.addr()))?;
        let mut bin = io(BinaryClient::connect(host.addr()))?;
        let mut ids = [0; 2];
        for d in [BIG, SMALL] {
            let path = self.xml_paths[d].display().to_string();
            let line = io(text.request(&format!("LOAD {path}")))?;
            let id = field(&line, "id").and_then(|v| v.parse().ok());
            let nodes: Option<usize> = field(&line, "nodes").and_then(|v| v.parse().ok());
            match (id, nodes) {
                (Some(id), Some(n)) if n == self.gen_nodes[d] => ids[d] = id,
                _ => return Err(format!("LOAD {path}: {line}")),
            }
        }
        let t = self.target();
        let mut warm = Vec::with_capacity(WARM_PASS);
        for key in self.docs[t].hot.iter().take(WARM_PASS) {
            warm.push((io(bin.query(ids[t], key))?, key.clone()));
        }
        let elapsed = started.elapsed().as_secs_f64();
        for (line, key) in warm {
            self.check(t, &key, &line)?;
        }
        self.setup_s.push(elapsed);
        Ok(Serving {
            host,
            text,
            bin,
            ids,
        })
    }

    /// The first set-up: it starts the serving server.
    pub fn setup(&mut self) -> OpResult {
        self.stop_server();
        let data_dir = self.data_dir.clone();
        let serving = self.set_up(&data_dir)?;
        self.host = Some(serving.host);
        self.text = Some(serving.text);
        self.bin = Some(serving.bin);
        for d in [BIG, SMALL] {
            self.docs[d].id = serving.ids[d];
        }
        let t = self.target();
        for r in 0..WARM_PASS.min(self.docs[t].hot.len()) {
            let key = self.docs[t].hot[r].clone();
            self.docs[t].note_asked(&key, true);
        }
        for d in [BIG, SMALL] {
            self.docs[d].nodes = self.stats_nodes(d)?;
        }
        Ok(())
    }

    /// One more set-up, on a server and data directory of its own,
    /// stopped again at once; the serving server is left as it is.
    fn extra_setup(&mut self) {
        let data_dir = self.config.work_dir.join("setup-data");
        match self.set_up(&data_dir) {
            Ok(Serving {
                host, text, bin, ..
            }) => {
                drop((text, bin));
                host.stop();
            }
            Err(e) => self.check_failures.push(format!("set-up: {e}")),
        }
        let _ = std::fs::remove_dir_all(&data_dir);
    }

    /// Checks made once per run, untimed: every corpus query answers
    /// exactly what the tree walks say, on every engine. The rUID-axis
    /// engines (`ruid`, `indexed`) are asked on `big` only for
    /// [`corpus::RUID_ON_BIG`], which they answer in milliseconds rather
    /// than seconds.
    pub fn global_checks(&mut self) {
        for d in [BIG, SMALL] {
            let id = self.docs[d].id;
            for q in CORPUS {
                let expected = self.docs[d].answers.get(q).to_owned();
                let mut engines = vec!["planned", "tree", "interval", "ancestry"];
                if d == SMALL || corpus::RUID_ON_BIG.contains(&q) {
                    engines.extend(["indexed", "ruid"]);
                }
                for engine in engines {
                    match self.text().request(&format!("QUERY {id} {q} {engine}")) {
                        Ok(line) if line == expected => {}
                        Ok(line) => self.check_failures.push(format!(
                            "doc {id} {engine} {q}: got {:?} hits, oracle {:?}",
                            corpus::hit_count(&line),
                            corpus::hit_count(&expected)
                        )),
                        Err(e) => self.check_failures.push(format!("{engine} {q}: {e}")),
                    }
                }
            }
        }
    }

    /// Checks one query answer against the oracle: byte for byte while
    /// no commit has relabeled the document, by hit count afterwards.
    pub fn check(&mut self, d: usize, key: &str, line: &str) -> OpResult {
        let exact = !self.docs[d].relabeled;
        let expected = self.docs[d].answers.get(key);
        let ok = if exact {
            line == expected
        } else {
            corpus::hit_count(line).is_some()
                && corpus::hit_count(line) == corpus::hit_count(expected)
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{key}: answer {:.80} differs from the tree walk",
                line
            ))
        }
    }

    fn record(&mut self, class: Class, us: f64) {
        self.samples.entry(class).or_default().push(us);
    }

    fn record_bytes(&mut self, class: Class, bytes: usize) {
        self.response_bytes
            .entry(class)
            .or_default()
            .push(bytes as f64);
    }

    /// Draws the next hot key of the workload's distribution.
    /// On the `big` workloads a draw from the skewed law over the whole
    /// hot set, so misses and evictions happen; on `update` a key asked
    /// since the last commit.
    pub fn draw_hot_key(&mut self) -> String {
        let t = self.target();
        if self.config.workload == Workload::Update {
            return self.draw_cached_key();
        }
        let n = self.docs[t].hot.len();
        let r = loop {
            let r = self.zipf.sample(&mut self.rng);
            if r < n {
                break r;
            }
        };
        self.docs[t].hot[r].clone()
    }

    /// A hot-set key among the [`RECENT`] last first asked at the current
    /// generation, so the cache still holds its answer: text, batch and
    /// pipeline requests time their own path, not a mix of hits and
    /// misses. The in-process replay, which starts right after a restart,
    /// draws from the top of the hot set instead.
    pub fn draw_cached_key(&mut self) -> String {
        let side = &self.docs[self.target()];
        match side.cached.len() {
            0 => side.hot[self.rng.gen_range(0..side.hot.len().min(16))].clone(),
            n => side.cached[n - 1 - self.rng.gen_range(0..n.min(RECENT))].clone(),
        }
    }

    fn next_fresh(&mut self, d: usize) -> Result<String, String> {
        let update = self.config.workload == Workload::Update;
        let side = &mut self.docs[d];
        let pool = if update { &side.hot } else { &side.fresh };
        for _ in 0..pool.len() {
            let key = &pool[side.fresh_cursor % pool.len()];
            side.fresh_cursor += 1;
            if !side.asked.contains(key) {
                return Ok(key.clone());
            }
        }
        Err("fresh key pool exhausted at this generation".into())
    }

    fn query_bin(&mut self, class: Class, d: usize, key: &str, hot: bool) -> OpResult {
        let id = self.docs[d].id;
        let started = Instant::now();
        let line = io(self.bin().query(id, key))?;
        self.record(class, micros(started.elapsed()));
        self.record_bytes(class, line.len());
        self.docs[d].note_asked(key, hot);
        self.check(d, key, &line)
    }

    fn op_hot(&mut self) -> OpResult {
        let key = self.draw_hot_key();
        self.query_bin(Class::Hot, self.target(), &key, true)
    }

    fn op_text(&mut self) -> OpResult {
        let key = self.draw_cached_key();
        let t = self.target();
        let request = format!("QUERY {} {key}", self.docs[t].id);
        let started = Instant::now();
        let line = io(self.text().request(&request))?;
        self.record(Class::Text, micros(started.elapsed()));
        self.docs[t].note_asked(&key, true);
        self.check(t, &key, &line)
    }

    fn op_fresh(&mut self) -> OpResult {
        let t = self.target();
        let key = self.next_fresh(t)?;
        let hot = self.config.workload == Workload::Update;
        self.query_bin(Class::Fresh, t, &key, hot)
    }

    fn op_cold_pass(&mut self) -> OpResult {
        let t = self.target();
        let key = self.docs[t].hot[self.cold_next].clone();
        self.cold_next += 1;
        if self.docs[t].asked.contains(&key) {
            return Err(format!("cold pass key {key} was already asked"));
        }
        self.query_bin(Class::Fresh, t, &key, true)
    }

    fn op_mquery(&mut self) -> OpResult {
        let t = self.target();
        let keys: Vec<String> = (0..BATCH).map(|_| self.draw_cached_key()).collect();
        let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
        let id = self.docs[t].id;
        let started = Instant::now();
        let lines = io(self.bin().mquery(id, &refs))?;
        self.record(Class::MQuery, micros(started.elapsed()));
        self.record_bytes(Class::MQuery, lines.iter().map(String::len).sum());
        if lines.len() != keys.len() {
            return Err(format!(
                "MQUERY answered {} of {} queries",
                lines.len(),
                keys.len()
            ));
        }
        // A batch must equal its single queries, which equal the oracle.
        for (key, line) in keys.iter().zip(&lines) {
            self.docs[t].note_asked(key, true);
            self.check(t, key, line)?;
        }
        Ok(())
    }

    fn op_pipeline(&mut self) -> OpResult {
        let t = self.target();
        let keys: Vec<String> = (0..DEPTH).map(|_| self.draw_cached_key()).collect();
        let doc = self.docs[t].id;
        let requests: Vec<WireRequest> = keys
            .iter()
            .map(|k| WireRequest::Query {
                doc,
                engine: Engine::Planned,
                xpath: k.clone(),
            })
            .collect();
        let started = Instant::now();
        let responses = io(self.bin().pipeline(&requests))?;
        self.record(Class::Pipeline, micros(started.elapsed()));
        for (key, response) in keys.iter().zip(&responses) {
            self.docs[t].note_asked(key, true);
            match response {
                WireResponse::Line(line) => self.check(t, key, line)?,
                other => return Err(format!("pipeline answered {other:?}")),
            }
        }
        Ok(())
    }

    fn op_span(&mut self) -> OpResult {
        let t = self.target();
        let key = self.span_key();
        let engine = if self.span_turn.is_multiple_of(2) {
            Engine::Interval
        } else {
            Engine::Ancestry
        };
        self.span_turn += 1;
        let doc = self.docs[t].id;
        let request = WireRequest::Query {
            doc,
            engine,
            xpath: key.clone(),
        };
        let started = Instant::now();
        let responses = io(self.bin().pipeline(std::slice::from_ref(&request)))?;
        self.record(Class::Span, micros(started.elapsed()));
        match &responses[..] {
            [WireResponse::Line(line)] => {
                self.record_bytes(Class::Span, line.len());
                self.check(t, &key, line)
            }
            other => Err(format!("span query answered {other:?}")),
        }
    }

    /// A key for the span engines: an `@id` path of the fresh pool.
    pub fn span_key(&mut self) -> String {
        let t = self.target();
        let n = self.docs[t].fresh.len();
        self.docs[t].fresh[self.rng.gen_range(0..n)].clone()
    }

    /// A key with the cost profile of the workload's fresh queries, for
    /// the in-process replay (which never touches the result cache).
    pub fn replay_fresh_key(&mut self) -> String {
        let t = self.target();
        let side = &self.docs[t];
        let pool = if self.config.workload == Workload::Update {
            &side.hot
        } else {
            &side.fresh
        };
        pool[self.rng.gen_range(0..pool.len())].clone()
    }

    fn add_cache_stats(&mut self, handle: &ServerHandle) {
        let s = handle.plan_cache().stats();
        self.cache.hits += s.hits;
        self.cache.misses += s.misses;
        self.cache.evictions += s.evictions;
        self.cache.invalidations += s.invalidations;
    }

    /// Result-cache counters summed over every server of the run so far.
    pub fn cache_totals(&self) -> CacheTotals {
        let mut total = self.cache;
        let local = self.host.as_ref().and_then(Host::local);
        if let Some(s) = local.map(|h| h.plan_cache().stats()) {
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.invalidations += s.invalidations;
        }
        total
    }

    /// A `//` query on the ruid engine, always on `small`.
    pub fn ruid_key(&mut self) -> String {
        let k = self.rng.gen_range(0..self.docs[SMALL].people.max(1));
        format!("//person[@id='person{k}']/name")
    }

    fn op_ruid(&mut self) -> OpResult {
        let key = self.ruid_key();
        let id = self.docs[SMALL].id;
        let request = format!("QUERY {id} {key} ruid");
        let started = Instant::now();
        let line = io(self.text().request(&request))?;
        self.record(Class::Ruid, micros(started.elapsed()));
        self.check(SMALL, &key, &line)
    }

    fn wal_stats(&self) -> Option<ruid_service::DurabilityStats> {
        self.host.as_ref()?.local()?.durability().map(|d| d.stats())
    }

    /// The single label `LABEL` answers for `path`.
    pub fn label_of(&mut self, d: usize, path: &str) -> Result<String, String> {
        let id = self.docs[d].id;
        let line = io(self.text().request(&format!("LABEL {id} {path}")))?;
        match line.strip_prefix("OK 1 ") {
            Some(label) if !label.contains(' ') => Ok(label.to_owned()),
            _ => Err(format!("LABEL {path}: {line:.80}")),
        }
    }

    fn stats_nodes(&mut self, d: usize) -> Result<usize, String> {
        let id = self.docs[d].id;
        let line = io(self.text().request(&format!("STATS {id}")))?;
        field(&line, "nodes")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("STATS: {line}"))
    }

    fn note_commit(&mut self, d: usize, line: &str, before: Option<ruid_service::DurabilityStats>) {
        if let (Some(b), Some(a)) = (before, self.wal_stats()) {
            if a.generation == b.generation && a.wal_records > b.wal_records {
                self.wal.push(WalDelta {
                    append_ns: a.wal_append_ns - b.wal_append_ns,
                    fsync_ns: a.wal_fsync_ns - b.wal_fsync_ns,
                    bytes: a.wal_bytes - b.wal_bytes,
                });
            }
        }
        let relabeled: u64 = field(line, "relabeled")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        self.relabeled.push(relabeled);
        if relabeled > 0 {
            self.docs[d].relabeled = true;
        }
        self.docs[d].forget_asked();
    }

    /// The path of the `person` the next commit on `d` inserts under.
    pub fn insert_target(&mut self, d: usize) -> String {
        let k = self.rng.gen_range(0..self.docs[d].people.max(1));
        format!("/people/person[@id='person{k}']")
    }

    fn op_insert(&mut self) -> OpResult {
        let t = self.target();
        let target = self.insert_target(t);
        let parent = self.label_of(t, &target)?;
        let tokens = corpus::label_tokens(&parent).ok_or("bad label")?;
        let id = self.docs[t].id;
        let request = format!("INSERT {id} {tokens} 1000 <svcmark/>");
        let before = self.wal_stats();
        let started = Instant::now();
        let line = io(self.text().request(&request))?;
        self.record(Class::Commit, micros(started.elapsed()));
        self.note_commit(t, &line, before);
        let label = field(&line, "label")
            .ok_or_else(|| format!("INSERT: {line}"))?
            .to_owned();
        // Lemma 1: the parent computed from the new label is the target.
        let new_tokens = corpus::label_tokens(&label).ok_or("bad label")?;
        let parent_line = io(self.text().request(&format!("PARENT {id} {new_tokens}")))?;
        let target_now = self.label_of(t, &target)?;
        if parent_line != format!("OK {target_now}") {
            return Err(format!(
                "PARENT of {label} is {parent_line}, target is {target_now}"
            ));
        }
        self.docs[t].nodes += 1;
        if self.stats_nodes(t)? != self.docs[t].nodes {
            return Err("node count did not grow by one after INSERT".into());
        }
        self.pending_delete = Some(new_tokens);
        Ok(())
    }

    fn op_delete(&mut self) -> OpResult {
        let t = self.target();
        let tokens = self
            .pending_delete
            .take()
            .ok_or("DELETE without a prior INSERT")?;
        let id = self.docs[t].id;
        let before = self.wal_stats();
        let started = Instant::now();
        let line = io(self.text().request(&format!("DELETE {id} {tokens}")))?;
        self.record(Class::Commit, micros(started.elapsed()));
        self.note_commit(t, &line, before);
        if field(&line, "removed") != Some("1") {
            return Err(format!("DELETE: {line}"));
        }
        self.docs[t].nodes -= 1;
        if self.stats_nodes(t)? != self.docs[t].nodes {
            return Err("node count did not shrink by one after DELETE".into());
        }
        Ok(())
    }

    fn op_ingest(&mut self) -> OpResult {
        let path = self.xml_paths[SMALL].display().to_string();
        let started = Instant::now();
        let line = io(self.text().request(&format!("LOAD {path}")))?;
        self.record(Class::Ingest, micros(started.elapsed()));
        let id = field(&line, "id")
            .ok_or_else(|| format!("LOAD: {line}"))?
            .to_owned();
        let unload = io(self.text().request(&format!("UNLOAD {id}")))?;
        if field(&line, "nodes") != Some(&self.gen_nodes[SMALL].to_string()) {
            return Err(format!(
                "LOAD reported {line}, generator made {}",
                self.gen_nodes[SMALL]
            ));
        }
        if unload != format!("OK unloaded {id}") {
            return Err(format!("UNLOAD: {unload}"));
        }
        Ok(())
    }

    fn op_snapshot(&mut self) -> OpResult {
        let line = io(self.text().request("SNAPSHOT"))?;
        let generation: u64 = field(&line, "generation")
            .and_then(|g| g.parse().ok())
            .ok_or_else(|| format!("SNAPSHOT: {line}"))?;
        let file = self.data_dir.join(durable::snapshot_file_name(generation));
        self.last_snapshot_bytes = io(std::fs::metadata(&file))?.len();
        Ok(())
    }

    fn tree_answers(&mut self, d: usize) -> Result<Vec<String>, String> {
        let id = self.docs[d].id;
        CORPUS[..6]
            .iter()
            .map(|q| io(self.text().request(&format!("QUERY {id} {q} tree"))))
            .collect()
    }

    /// Stops the server, then times a restart on the same data directory
    /// until the new server answers `PING`.
    pub fn restart(&mut self) -> Result<f64, String> {
        self.stop_server();
        let started = Instant::now();
        self.host = Some(Host::start(
            &self.data_dir,
            self.config.server_exe.as_deref(),
        )?);
        self.connect()?;
        let pong = io(self.text().request("PING"))?;
        let elapsed = micros(started.elapsed());
        if pong != "OK pong" {
            return Err(format!("PING after restart: {pong}"));
        }
        for side in &mut self.docs {
            side.forget_asked();
        }
        self.cold_next = 0;
        Ok(elapsed)
    }

    fn op_restart(&mut self) -> OpResult {
        let t = self.target();
        let before = self.tree_answers(t)?;
        let us = self.restart()?;
        self.record(Class::Recover, us);
        if self.tree_answers(t)? != before {
            return Err("corpus answers changed across the restart".into());
        }
        Ok(())
    }

    fn execute(&mut self, op: Op) -> OpResult {
        match op {
            Op::Hot => self.op_hot(),
            Op::Text => self.op_text(),
            Op::Fresh => self.op_fresh(),
            Op::ColdPass => self.op_cold_pass(),
            Op::MQuery => self.op_mquery(),
            Op::Pipeline => self.op_pipeline(),
            Op::Span => self.op_span(),
            Op::Ruid => self.op_ruid(),
            Op::Insert => self.op_insert(),
            Op::Delete => self.op_delete(),
            Op::Ingest => self.op_ingest(),
            Op::Snapshot => self.op_snapshot(),
            Op::Restart => self.op_restart(),
        }
    }

    /// Runs whole rounds until `seconds` have passed (at least one).
    /// Between rounds, once the run is `k / SETUPS` through, it times the
    /// `k`-th extra set-up, so a slow stretch of the host meets set-up
    /// time no more than the classes; set-ups still due at the end are
    /// made then.
    pub fn run_loop(&mut self, seconds: f64) {
        let started = Instant::now();
        let mut setups = self.setup_s.len();
        loop {
            for op in schedule::round(self.config.workload, &mut self.rng) {
                self.attempted += 1;
                if let Err(e) = self.execute(op) {
                    self.failed += 1;
                    if self.op_failures.len() < 8 {
                        self.op_failures.push(format!("{op:?}: {e}"));
                    }
                }
            }
            let elapsed = started.elapsed().as_secs_f64();
            if setups < SETUPS && elapsed >= seconds * setups as f64 / SETUPS as f64 {
                self.extra_setup();
                setups += 1;
            }
            if elapsed >= seconds {
                break;
            }
        }
        for _ in setups..SETUPS {
            self.extra_setup();
        }
    }

    /// Stops the server and removes the scratch directory.
    pub fn finish(mut self) {
        self.stop_server();
        let _ = std::fs::remove_dir_all(&self.config.work_dir);
    }
}
