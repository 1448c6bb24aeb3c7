//! The generated documents, the query corpus, the hot and fresh key
//! sets, and the tree-walk oracle every answer is checked against.
//!
//! Paths follow the service's convention: an absolute path starts at the
//! root element, so `/people/person` names the `person` children of the
//! `people` child of `<site>`.

use std::collections::HashMap;

use ruid_core::{PartitionConfig, Ruid2Scheme};
use schemes::NumberingScheme;
use xmldom::{Document, NodeId};
use xmlgen::prng::SplitMix64;
use xmlgen::xmark::{self, XmarkConfig};

/// The partition depth `LOAD` uses by default; the oracle numbers its own
/// copy of each document the same way so it can render expected labels.
pub const LOAD_DEPTH: usize = 3;

/// Distinct keys in the hot set: twice the server's 1024-entry result
/// cache, so the skewed draws keep evicting.
pub const HOT_KEYS: usize = 2048;

const REGIONS: [&str; 6] = [
    "africa",
    "asia",
    "australia",
    "europe",
    "namerica",
    "samerica",
];

/// Structural queries: every family of step and predicate the workloads
/// use, with answers from a single label up to every `item` of a region.
pub const CORPUS: [&str; 14] = [
    "/people/person",
    "/people/person/name",
    "//item/name",
    "/regions/europe/item/location",
    "//open_auction/bidder/increase",
    "//closed_auction/price",
    "/categories/category/name",
    "//person/address/city",
    "//person[profile]/name",
    "//open_auction[bidder]/current",
    "//person[not(address)]/emailaddress",
    "//item/description/text",
    "//profile/interest",
    "//bidder/personref",
];

/// The corpus paths the rUID-axis engines answer on `big` within
/// milliseconds: the other paths take from 0.6 s
/// (`/categories/category/name`) to seconds (every `//` path).
pub const RUID_ON_BIG: [&str; 3] = [
    "/people/person",
    "/people/person/name",
    "/regions/europe/item/location",
];

/// Document sizes in nodes (the generator lands within a few percent).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// The `big` document.
    pub big: usize,
    /// The `small` document.
    pub small: usize,
}

impl Sizes {
    /// The sizes the workloads are named after.
    pub const FULL: Sizes = Sizes {
        big: 150_000,
        small: 20_000,
    };
    /// A reduced size for the benchmark's own smoke tests; `big` still
    /// has more `@id` keys than `read_xmark150k`'s cold pass asks.
    pub const SMOKE: Sizes = Sizes {
        big: 13_000,
        small: 1_200,
    };
}

/// A predicate of one step.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// `[name]`: has a child element `name`.
    Has(String),
    /// `[not(name)]`: has no child element `name`.
    Not(String),
    /// `[@attr='value']`.
    AttrEq(String, String),
}

/// One location step: `/name` or `//name`, with at most one predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct QStep {
    /// `//` (descendant) rather than `/` (child).
    pub desc: bool,
    /// Element name, or `*`.
    pub name: String,
    /// Optional predicate.
    pub pred: Option<Pred>,
}

/// A query in the small path grammar the oracle understands.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The steps, left to right, from the root element.
    pub steps: Vec<QStep>,
}

impl Query {
    /// Parses `/a//b[c]/d[@k='v']/e[not(f)]`-shaped paths.
    pub fn parse(path: &str) -> Query {
        let mut steps = Vec::new();
        let mut rest = path;
        while !rest.is_empty() {
            let desc = rest.starts_with("//");
            rest = rest
                .strip_prefix(if desc { "//" } else { "/" })
                .expect("path step");
            let end = rest.find('/').unwrap_or(rest.len());
            let (seg, tail) = rest.split_at(end);
            rest = tail;
            let (name, pred) = match seg.find('[') {
                Some(i) => (&seg[..i], Some(parse_pred(&seg[i + 1..seg.len() - 1]))),
                None => (seg, None),
            };
            steps.push(QStep {
                desc,
                name: name.to_owned(),
                pred,
            });
        }
        Query { steps }
    }
}

fn parse_pred(body: &str) -> Pred {
    if let Some(inner) = body.strip_prefix("not(").and_then(|b| b.strip_suffix(')')) {
        Pred::Not(inner.to_owned())
    } else if let Some(eq) = body.strip_prefix('@') {
        let (attr, value) = eq.split_once('=').expect("attribute predicate");
        Pred::AttrEq(attr.to_owned(), value.trim_matches('\'').to_owned())
    } else {
        Pred::Has(body.to_owned())
    }
}

/// The benchmark's own evaluator: plain tree walks over a parsed copy of
/// the generated document, plus an rUID numbering of that copy to render
/// the labels the service is expected to answer with.
pub struct Oracle {
    doc: Document,
    rank: Vec<u32>,
    scheme: Ruid2Scheme,
}

impl Oracle {
    /// Parses `xml` and numbers it the way `LOAD` does.
    pub fn new(xml: &str) -> Oracle {
        let doc = Document::parse(xml).expect("generated XML parses");
        let mut rank = vec![u32::MAX; doc.arena_len()];
        for (i, n) in doc.descendants(doc.root()).enumerate() {
            rank[n.index()] = i as u32;
        }
        let scheme = Ruid2Scheme::try_build(&doc, &PartitionConfig::by_depth(LOAD_DEPTH))
            .expect("generated document numbers");
        Oracle { doc, rank, scheme }
    }

    /// Nodes reachable from the document node.
    pub fn node_count(&self) -> usize {
        self.rank.iter().filter(|&&r| r != u32::MAX).count()
    }

    fn name_matches(&self, n: NodeId, name: &str) -> bool {
        match self.doc.tag_name(n) {
            Some(tag) => name == "*" || tag == name,
            None => false,
        }
    }

    fn has_child(&self, n: NodeId, name: &str) -> bool {
        self.doc.children(n).any(|c| self.name_matches(c, name))
    }

    /// The matches of `q`, in document order, without duplicates.
    pub fn eval(&self, q: &Query) -> Vec<NodeId> {
        let Some(root) = self.doc.root_element() else {
            return Vec::new();
        };
        let mut current = vec![root];
        for step in &q.steps {
            let mut next = Vec::new();
            for &context in &current {
                if step.desc {
                    next.extend(
                        self.doc
                            .descendants(context)
                            .skip(1)
                            .filter(|&n| self.name_matches(n, &step.name)),
                    );
                } else {
                    next.extend(
                        self.doc
                            .children(context)
                            .filter(|&n| self.name_matches(n, &step.name)),
                    );
                }
            }
            next.sort_by_key(|n| self.rank[n.index()]);
            next.dedup();
            if let Some(pred) = &step.pred {
                next.retain(|&n| match pred {
                    Pred::Has(c) => self.has_child(n, c),
                    Pred::Not(c) => !self.has_child(n, c),
                    Pred::AttrEq(a, v) => self.doc.attribute(n, a) == Some(v.as_str()),
                });
            }
            current = next;
        }
        current
    }

    /// The exact response line the service should give for `q`:
    /// `OK <count>` and one `(global,local,root)` label per hit.
    pub fn answer(&self, q: &Query) -> String {
        let hits = self.eval(q);
        let mut out = format!("OK {}", hits.len());
        for n in hits {
            let l = self.scheme.label_of(n);
            out.push_str(&format!(" ({},{},{})", l.global, l.local, l.is_root));
        }
        out
    }
}

/// One generated document: its XML text, the generator's node count,
/// the scale it was generated at, and its oracle.
pub struct Fixture {
    /// `big` or `small`.
    pub name: &'static str,
    /// Serialized XML (what `LOAD` reads).
    pub xml: String,
    /// Nodes the generator produced, the document node included.
    pub nodes: usize,
    /// The generator's scale knobs.
    pub config: XmarkConfig,
}

impl Fixture {
    /// Generates the document for `seed` at roughly `target` nodes.
    pub fn generate(name: &'static str, target: usize, seed: u64) -> Fixture {
        let config = XmarkConfig::scaled_to(target, seed);
        let doc = xmark::generate(&config);
        Fixture {
            name,
            xml: doc.to_xml_string(),
            nodes: doc.node_count(),
            config,
        }
    }
}

/// A family of `@id`-keyed queries: one element kind, one leaf child.
#[derive(Clone, Copy)]
enum Family {
    Person,
    Item,
    Open,
    Closed,
}

const FAMILIES: [Family; 4] = [Family::Person, Family::Item, Family::Open, Family::Closed];

impl Family {
    fn count(self, c: &XmarkConfig) -> usize {
        match self {
            Family::Person => c.people,
            Family::Item => c.items_per_region * REGIONS.len(),
            Family::Open => c.open_auctions,
            Family::Closed => c.closed_auctions,
        }
    }

    /// The path to element `k`; `fresh` picks the leaf that hot keys never
    /// use, so a fresh key can never be one the hot set already cached.
    fn path(self, c: &XmarkConfig, k: usize, fresh: bool) -> String {
        match self {
            Family::Person => {
                let leaf = if fresh { "emailaddress" } else { "name" };
                format!("/people/person[@id='person{k}']/{leaf}")
            }
            Family::Item => {
                let region = REGIONS[k / c.items_per_region.max(1)];
                let leaf = if fresh { "location" } else { "name" };
                format!("/regions/{region}/item[@id='item{k}']/{leaf}")
            }
            Family::Open => {
                let leaf = if fresh { "initial" } else { "current" };
                format!("/open_auctions/open_auction[@id='open_auction{k}']/{leaf}")
            }
            Family::Closed => {
                let leaf = if fresh { "date" } else { "price" };
                format!("/closed_auctions/closed_auction[@id='closed_auction{k}']/{leaf}")
            }
        }
    }
}

/// Fisher–Yates permutation of `0..n` from `rng`.
fn permutation(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..i + 1);
        v.swap(i, j);
    }
    v
}

/// `count` distinct keyed paths (at most the four families' total), taken
/// round-robin over the families that still have unused ids, each
/// family's ids in a seeded order.
fn keyed_paths(c: &XmarkConfig, count: usize, fresh: bool, rng: &mut SplitMix64) -> Vec<String> {
    let mut orders: Vec<std::vec::IntoIter<usize>> = FAMILIES
        .iter()
        .map(|f| permutation(f.count(c), rng).into_iter())
        .collect();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let before = out.len();
        for (f, order) in FAMILIES.iter().zip(&mut orders) {
            if let Some(k) = order.next().filter(|_| out.len() < count) {
                out.push(f.path(c, k, fresh));
            }
        }
        if out.len() == before {
            break;
        }
    }
    out
}

/// The hot set of one document, most popular first: the corpus queries
/// sit at fixed ranks (7, 71, 135, ...), every other rank is an
/// `@id`-keyed path.
pub fn hot_keys(c: &XmarkConfig, seed: u64) -> Vec<String> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x4807);
    let distinct: usize = FAMILIES.iter().map(|f| f.count(c)).sum();
    let n = HOT_KEYS.min(distinct);
    let mut keyed = keyed_paths(c, n, false, &mut rng).into_iter();
    let mut corpus = CORPUS.iter();
    (0..n)
        .map(|r| match (r % 64 == 7).then(|| corpus.next()).flatten() {
            Some(q) => (*q).to_owned(),
            None => keyed.next().expect("enough keyed paths"),
        })
        .collect()
}

/// Keys no hot draw ever asks, in the order fresh queries use them.
pub fn fresh_keys(c: &XmarkConfig, seed: u64) -> Vec<String> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xF2E5);
    let distinct: usize = FAMILIES.iter().map(|f| f.count(c)).sum();
    keyed_paths(c, distinct.min(4096), true, &mut rng)
}

/// The default skew of hot draws: rank `r` is drawn with weight
/// `(r + 1)^-s`. An assumption, not a measurement of XML query traffic,
/// and steeper than the 0.64–0.83 Breslau et al. fitted to web proxy
/// request traces ("Web Caching and Zipf-like Distributions", INFOCOM
/// 1999): it keeps most hot draws on cached keys, so the hot median
/// times hits.
pub const ZIPF_S: f64 = 1.2;

/// Draws ranks from a Zipf law of exponent [`ZIPF_S`] over `n` ranks.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The law over ranks `0..n`.
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += (r as f64 + 1.0).powf(-ZIPF_S);
                acc
            })
            .collect();
        for x in &mut cdf {
            *x /= acc;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.gen_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Expected answers per query path, computed on first use.
pub struct Answers {
    oracle: Oracle,
    memo: HashMap<String, String>,
}

impl Answers {
    /// Wraps an oracle.
    pub fn new(oracle: Oracle) -> Answers {
        Answers {
            oracle,
            memo: HashMap::new(),
        }
    }

    /// The exact expected response line for `path`.
    pub fn get(&mut self, path: &str) -> &str {
        if !self.memo.contains_key(path) {
            let line = self.oracle.answer(&Query::parse(path));
            self.memo.insert(path.to_owned(), line);
        }
        &self.memo[path]
    }
}

/// The hit count of a response line (`OK <n> ...`), if it is one.
pub fn hit_count(line: &str) -> Option<usize> {
    let mut parts = line.splitn(3, ' ');
    (parts.next() == Some("OK")).then_some(())?;
    let n: usize = parts.next()?.parse().ok()?;
    let labels = parts.next().map_or(0, |rest| rest.split(' ').count());
    (labels == n).then_some(n)
}

/// The `(g,l,r)` label as the three space-separated request tokens.
pub fn label_tokens(label: &str) -> Option<String> {
    let inner = label.strip_prefix('(')?.strip_suffix(')')?;
    let parts: Vec<&str> = inner.split(',').collect();
    (parts.len() == 3).then(|| parts.join(" "))
}
