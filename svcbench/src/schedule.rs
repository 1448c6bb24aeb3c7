//! Workloads and the seeded operation schedule.
//!
//! A run is a sequence of whole rounds. Every round of a workload holds
//! the same multiset of operations; the seed only shuffles the middle of
//! the round, so each class is spread over the whole run and the share
//! of every class is exactly the same in every run.

use xmlgen::prng::SplitMix64;

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Serving traffic on `big`: skewed hot-set reads, a few commits.
    Read,
    /// Commits on `small`, each followed by fresh then hot queries.
    Update,
    /// Ingest, snapshot, commits and a restart per cycle on `big`.
    Restart,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Read, Workload::Update, Workload::Restart];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Read => "read_xmark150k",
            Workload::Update => "update_xmark20k",
            Workload::Restart => "restart_xmark150k",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload's target document is `big` (else `small`).
    pub fn targets_big(self) -> bool {
        !matches!(self, Workload::Update)
    }
}

/// One scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Binary planned `QUERY` of a hot key.
    Hot,
    /// The same over the text protocol.
    Text,
    /// Binary planned `QUERY` of a key not asked at this generation.
    Fresh,
    /// One `MQUERY` batch of hot keys.
    MQuery,
    /// One fixed-depth pipeline of hot keys.
    Pipeline,
    /// `QUERY` on the interval or ancestry engine.
    Span,
    /// `QUERY` on the ruid engine, on `small`.
    Ruid,
    /// `INSERT` of one element under a seeded target.
    Insert,
    /// `DELETE` of the element the last `INSERT` added.
    Delete,
    /// `LOAD` of the small file, then an untimed `UNLOAD`.
    Ingest,
    /// `SNAPSHOT` (untimed; it bounds the WAL tail a restart replays).
    Snapshot,
    /// Server restart on the data directory until it answers.
    Restart,
    /// A fresh query of the next most popular hot key after a restart.
    ColdPass,
}

/// Cold-pass queries on `read_xmark150k`: the whole top half of the
/// hot set, so the 1,024-entry cache starts each round full and every
/// later miss evicts.
pub const READ_COLD_PASS: usize = 1024;
/// Cold-pass queries after each restart on `restart_xmark150k`.
pub const RESTART_COLD_PASS: usize = 128;

fn push(v: &mut Vec<Vec<Op>>, op: Op, n: usize) {
    v.extend(std::iter::repeat_n(vec![op], n));
}

/// The operations of one round, in order.
pub fn round(workload: Workload, rng: &mut SplitMix64) -> Vec<Op> {
    let mut head = vec![Op::Ingest, Op::Ingest, Op::Snapshot];
    let mut middle: Vec<Vec<Op>> = Vec::new();
    match workload {
        Workload::Read => {
            // The restart comes before the cold pass, so a run ends with
            // the cache and the versions the traffic left behind.
            head.extend([Op::Insert, Op::Delete, Op::Restart]);
            head.extend(std::iter::repeat_n(Op::ColdPass, READ_COLD_PASS));
            push(&mut middle, Op::Hot, 600);
            push(&mut middle, Op::Text, 60);
            push(&mut middle, Op::Fresh, 8);
            push(&mut middle, Op::MQuery, 8);
            push(&mut middle, Op::Pipeline, 4);
            push(&mut middle, Op::Span, 8);
            push(&mut middle, Op::Ruid, 2);
        }
        Workload::Update => {
            let block = || {
                let mut b = vec![Op::Insert];
                b.extend(std::iter::repeat_n(Op::Fresh, 4));
                b.extend(std::iter::repeat_n(Op::Hot, 12));
                b.push(Op::Delete);
                b.extend(std::iter::repeat_n(Op::Fresh, 4));
                b.extend(std::iter::repeat_n(Op::Hot, 12));
                b
            };
            // The restart comes first, so a run ends with the versions the
            // traffic left behind; the first block follows it so hot draws
            // always have keys asked at the current generation.
            head.insert(0, Op::Restart);
            head.extend(block());
            middle.extend(std::iter::repeat_with(block).take(9));
            push(&mut middle, Op::Text, 40);
            push(&mut middle, Op::MQuery, 8);
            push(&mut middle, Op::Pipeline, 4);
            push(&mut middle, Op::Span, 8);
            push(&mut middle, Op::Ruid, 2);
        }
        Workload::Restart => {
            head.extend([Op::Insert, Op::Delete, Op::Insert, Op::Delete, Op::Restart]);
            head.extend(std::iter::repeat_n(Op::ColdPass, RESTART_COLD_PASS));
            push(&mut middle, Op::Hot, 200);
            push(&mut middle, Op::Text, 20);
            push(&mut middle, Op::MQuery, 4);
            push(&mut middle, Op::Pipeline, 2);
            push(&mut middle, Op::Span, 8);
            push(&mut middle, Op::Ruid, 2);
        }
    }
    for i in (1..middle.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        middle.swap(i, j);
    }
    head.into_iter()
        .chain(middle.into_iter().flatten())
        .collect()
}
