//! The four workloads: their queries, their query mix, the inputs they
//! generate from a seed, and the oracle answers those inputs must produce.
//!
//! Every expected answer is computed in-process from the *generated*
//! hedges (or in closed form for the deep chains), never by parsing what
//! `hxq` is given, so a bug in `hxq`'s XML front end shows up as a wrong
//! answer instead of being reproduced by the oracle.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use hedgex::core::two_pass;
use hedgex::hedge::flat::FlatLabel;
use hedgex::hedge::NodeId;
use hedgex::prelude::*;
use hedgex::xml::{docbook, DocbookConfig};
use hedgex_testkit::Rng;

use crate::report::{fnv1a, Fnv};

/// Workload names, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = ["file_cold", "stream_stdin", "store_corpus", "warm_repeat"];

/// Query slots the mix is apportioned over, exactly, so every run of a
/// workload weighs the same class composition whatever its seed. 200
/// slots leave ten beyond p95.
pub const SLOTS: usize = 200;
const SMOKE_SLOTS: usize = 10;

/// The queries the workloads draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Query {
    /// `article section* figure`.
    P1,
    /// `sidebar` (selective on the store corpus).
    P2,
    /// The figure-before-table PHR.
    Q1,
    /// `[U ; sidebar ; U]`.
    Q2,
    /// `a* a` on a deep chain.
    ChainPath,
    /// `[ε ; a ; ε]*` on a deep chain.
    ChainPhr,
}

impl Query {
    pub fn is_path(self) -> bool {
        matches!(self, Query::P1 | Query::P2 | Query::ChainPath)
    }

    pub fn label(self) -> &'static str {
        match self {
            Query::P1 => "P1",
            Query::P2 => "P2",
            Query::Q1 => "Q1",
            Query::Q2 => "Q2",
            Query::ChainPath => "C1",
            Query::ChainPhr => "C2",
        }
    }

    /// The query as `hxq` receives it on the command line.
    pub fn text(self) -> String {
        let u = universal();
        match self {
            Query::P1 => "article section* figure".into(),
            Query::P2 => "sidebar".into(),
            Query::Q1 => format!(
                "[{u} ; figure ; table<{u}> ({u})][{u} ; section ; {u}]([{u} ; section ; {u}]|[{u} ; article ; {u}])*"
            ),
            Query::Q2 => format!("[{u} ; sidebar ; {u}]"),
            Query::ChainPath => "a* a".into(),
            Query::ChainPhr => "[ε ; a ; ε]*".into(),
        }
    }
}

/// The universal hedge expression over the DocBook alphabet.
fn universal() -> String {
    hedgex_bench::docbook_universal(&mut Alphabet::new())
}

/// What `hxq` is asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Mode {
    Locate,
    Count,
    Exists,
}

impl Mode {
    pub fn flag(self) -> Option<&'static str> {
        match self {
            Mode::Locate => None,
            Mode::Count => Some("--count"),
            Mode::Exists => Some("--exists"),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Mode::Locate => "locate",
            Mode::Count => "count",
            Mode::Exists => "exists",
        }
    }
}

/// Where a workload's documents come from when `hxq` answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// `hxq … FILE`.
    File,
    /// `hxq --stream … -`, the document piped to stdin.
    Stdin,
    /// `hxq --store STORE …`.
    Store,
    /// `hxq --repeat N … FILE`.
    Repeat,
}

/// One query class: a document, a query, a mode and a worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Class {
    pub doc: usize,
    pub query: Query,
    pub mode: Mode,
    pub jobs: u8,
}

/// One input `hxq` answers over.
pub struct Doc {
    pub name: String,
    /// The XML file (for the store workload: the store file).
    pub path: PathBuf,
    /// XML bytes one query answers over (store: the whole corpus).
    pub xml_bytes: u64,
    pub nodes: u64,
    /// Hedge events a complete stream of the document delivers.
    pub events: u64,
    /// Mix group: the size class, or the chain group.
    pub group: usize,
}

/// The oracle's answer for one (document, query) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub matches: u64,
    /// FNV-1a of the exact stdout a locate query prints.
    pub locate_digest: u64,
}

/// What a correct `hxq` run of a class does: its exit code and stdout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    pub exit: i32,
    pub digest: u64,
}

impl Answer {
    pub fn expect(self, mode: Mode) -> Expect {
        match mode {
            Mode::Locate => Expect {
                exit: 0,
                digest: self.locate_digest,
            },
            Mode::Count => Expect {
                exit: 0,
                digest: fnv1a(format!("{}\n", self.matches).as_bytes()),
            },
            Mode::Exists => Expect {
                exit: if self.matches > 0 { 0 } else { 1 },
                digest: fnv1a(b""),
            },
        }
    }
}

/// A generated workload, ready to run.
pub struct Workload {
    pub source: Source,
    pub dir: PathBuf,
    pub docs: Vec<Doc>,
    pub answers: BTreeMap<(usize, Query), Answer>,
    /// The mix: each distinct class with its number of slots, in an order
    /// shuffled by the seed.
    pub classes: Vec<(Class, usize)>,
    /// `--repeat N` of the warm workload.
    pub repeat: u32,
    /// The directory of `*.xml` files set-up indexes.
    pub index_dir: PathBuf,
    /// Source XML bytes in `index_dir`.
    pub index_xml_bytes: u64,
    /// Where set-up writes its store (the store workload queries it).
    pub store_path: PathBuf,
    /// FNV-1a of every generated input file, by name.
    pub inputs: Vec<(String, u64)>,
    /// One fingerprint over the inputs and the mix.
    pub fingerprint: u64,
}

impl Workload {
    pub fn expect(&self, c: &Class) -> Expect {
        self.answers[&(c.doc, c.query)].expect(c.mode)
    }

    /// The `hxq` arguments for one class.
    pub fn args(&self, c: &Class) -> Vec<String> {
        let mut args: Vec<String> = Vec::new();
        match self.source {
            Source::File => {}
            Source::Stdin => args.push("--stream".into()),
            Source::Store => {
                args.push("--store".into());
                args.push(self.store_path.display().to_string());
            }
            Source::Repeat => {
                args.push("--repeat".into());
                args.push(self.repeat.to_string());
            }
        }
        if c.jobs > 1 {
            args.push("--jobs".into());
            args.push(c.jobs.to_string());
        }
        if let Some(flag) = c.mode.flag() {
            args.push(flag.into());
        }
        args.push(if c.query.is_path() { "--path" } else { "--phr" }.into());
        args.push(c.query.text());
        match self.source {
            Source::File | Source::Repeat => args.push(self.docs[c.doc].path.display().to_string()),
            Source::Stdin => args.push("-".into()),
            Source::Store => {}
        }
        args
    }

    /// The `hxq index` arguments of the set-up step, writing to `out`.
    pub fn index_args(&self, out: &Path) -> Vec<String> {
        vec![
            "index".into(),
            self.index_dir.display().to_string(),
            "--out".into(),
            out.display().to_string(),
        ]
    }
}

/// Sizes of everything a workload generates.
struct Scale {
    slots: usize,
    doc_sizes: [usize; 3],
    copies: usize,
    chain_depth: usize,
    store_docs: usize,
    store_doc_nodes: usize,
    warm_docs: usize,
    warm_nodes: usize,
    repeat: u32,
}

const FULL: Scale = Scale {
    slots: SLOTS,
    doc_sizes: [10_000, 50_000, 200_000],
    copies: 4,
    chain_depth: 100_000,
    store_docs: 120,
    store_doc_nodes: 2_000,
    warm_docs: 4,
    warm_nodes: 20_000,
    repeat: 100,
};

const SMOKE: Scale = Scale {
    slots: SMOKE_SLOTS,
    doc_sizes: [300, 600, 1_200],
    copies: 2,
    chain_depth: 1_000,
    store_docs: 20,
    store_doc_nodes: 200,
    warm_docs: 2,
    warm_nodes: 500,
    repeat: 5,
};

/// A mix: weighted splits down to class templates. Counts are apportioned
/// level by level (largest remainder), so every level's shares hold as
/// exactly as the slot count allows.
enum Mix {
    Leaf(Template),
    Split(Vec<(u32, Mix)>),
}

/// A class before a concrete document of its group is assigned.
#[derive(Debug, Clone, Copy)]
struct Template {
    group: usize,
    query: Query,
    mode: Mode,
    jobs: u8,
}

const MODES: [(u32, Mode); 3] = [(50, Mode::Locate), (30, Mode::Count), (20, Mode::Exists)];
const JOBS: [(u32, u8); 2] = [(50, 1), (50, 2)];

fn split<T: Copy>(axis: &[(u32, T)], mut f: impl FnMut(T) -> Mix) -> Mix {
    Mix::Split(axis.iter().map(|&(w, t)| (w, f(t))).collect())
}

fn leaf(group: usize, query: Query, mode: Mode, jobs: u8) -> Mix {
    Mix::Leaf(Template {
        group,
        query,
        mode,
        jobs,
    })
}

/// DocBook files picked by size class (10k/50k/200k nodes, `shares`),
/// path/PHR 60/40, locate/count/exists 50/30/20.
fn docbook_mix(shares: [u32; 3]) -> Mix {
    split(&[(shares[0], 0), (shares[1], 1), (shares[2], 2)], |group| {
        split(&[(60, Query::P1), (40, Query::Q1)], |query| {
            split(&MODES, |mode| leaf(group, query, mode, 1))
        })
    })
}

fn mix(name: &str) -> Mix {
    match name {
        "file_cold" => docbook_mix([55, 25, 20]),
        "stream_stdin" => {
            // Chains only count or test: locate output on a chain is
            // quadratic in its depth.
            let chain = split(&[(50, Query::ChainPath), (50, Query::ChainPhr)], |query| {
                split(&[(50, Mode::Count), (50, Mode::Exists)], |mode| {
                    leaf(3, query, mode, 1)
                })
            });
            Mix::Split(vec![(90, docbook_mix([60, 31, 9])), (10, chain)])
        }
        "store_corpus" => {
            let modes = [(40, Mode::Locate), (40, Mode::Count), (20, Mode::Exists)];
            let by_mode = |query, jobs: &[(u32, u8)]| {
                split(&modes, |mode| split(jobs, |j| leaf(0, query, mode, j)))
            };
            // Workers split by query, not within one (53/47 overall): P1
            // locate fills the slots just below p95, and a two-worker
            // class there would tie p95 to the second vCPU, which busy
            // neighbours slow for minutes at a time.
            Mix::Split(vec![
                (45, by_mode(Query::P1, &[(1, 1)])),
                (42, by_mode(Query::P2, &[(1, 2)])),
                (10, by_mode(Query::Q2, &JOBS)),
                // One class: the analyzer stall Q1 is here for does not
                // depend on the mode or the workers, and every run of it
                // costs seconds.
                (3, leaf(0, Query::Q1, Mode::Count, 1)),
            ])
        }
        "warm_repeat" => split(&[(40, Query::P1), (60, Query::Q1)], |query| {
            split(&MODES, |mode| {
                split(&JOBS, |jobs| leaf(0, query, mode, jobs))
            })
        }),
        other => unreachable!("unknown workload {other}"),
    }
}

/// Split `n` by `weights` with the largest-remainder method; ties go to
/// the earlier entry, so the result is a pure function of its inputs.
pub fn apportion(n: usize, weights: &[u32]) -> Vec<usize> {
    let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
    let mut counts: Vec<usize> = Vec::with_capacity(weights.len());
    let mut rems: Vec<(u64, usize)> = Vec::with_capacity(weights.len());
    for (i, &w) in weights.iter().enumerate() {
        let exact = n as u64 * u64::from(w);
        counts.push((exact / total) as usize);
        rems.push((exact % total, i));
    }
    let short = n - counts.iter().sum::<usize>();
    rems.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in rems.iter().take(short) {
        counts[i] += 1;
    }
    counts
}

/// The leaves of `mix` with their slot counts out of `n`.
fn expand(mix: &Mix, n: usize, out: &mut Vec<(Template, usize)>) {
    match mix {
        Mix::Leaf(t) => {
            if n > 0 {
                out.push((*t, n));
            }
        }
        Mix::Split(parts) => {
            let weights: Vec<u32> = parts.iter().map(|(w, _)| *w).collect();
            for ((_, sub), k) in parts.iter().zip(apportion(n, &weights)) {
                expand(sub, k, out);
            }
        }
    }
}

pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// A seed for one generated object, derived from the run's seed.
pub fn sub_seed(seed: u64, what: &str, i: usize) -> u64 {
    fnv1a(format!("e2e/{seed}/{what}/{i}").as_bytes())
}

/// Expand the mix into its classes. Each template is bound to one
/// document of its group, dealt round-robin in a seeded order, so every
/// document is queried; the classes come out in a seeded order.
fn build_classes(name: &str, scale: &Scale, docs: &[Doc], seed: u64) -> Vec<(Class, usize)> {
    let mut templates = Vec::new();
    expand(&mix(name), scale.slots, &mut templates);
    let mut rng = Rng::seed_from_u64(sub_seed(seed, name, usize::MAX));
    let mut dealt: BTreeMap<usize, (Vec<usize>, usize)> = BTreeMap::new();
    let mut classes = Vec::with_capacity(templates.len());
    for (t, n) in templates {
        let (members, next) = dealt.entry(t.group).or_insert_with(|| {
            let mut members: Vec<usize> = (0..docs.len())
                .filter(|&d| docs[d].group == t.group)
                .collect();
            shuffle(&mut members, &mut rng);
            (members, 0)
        });
        let class = Class {
            doc: members[*next % members.len()],
            query: t.query,
            mode: t.mode,
            jobs: t.jobs,
        };
        *next += 1;
        classes.push((class, n));
    }
    shuffle(&mut classes, &mut rng);
    classes
}

/// Hedge events a full stream of `h` delivers: open + close per element,
/// one per leaf.
fn events(h: &FlatHedge) -> u64 {
    h.preorder()
        .map(|n| match h.label(n) {
            FlatLabel::Sym(_) => 2,
            _ => 1,
        })
        .sum()
}

/// Feed the exact lines `hxq` prints for located nodes into `fnv`:
/// `{prefix}/{dewey}` per match, in document order.
fn hash_locate(h: &FlatHedge, hits: &[NodeId], prefix: &str, fnv: &mut Fnv) {
    for &n in hits {
        let dewey: Vec<String> = h.dewey(n).iter().map(u32::to_string).collect();
        fnv.update(format!("{prefix}/{}\n", dewey.join("/")).as_bytes());
    }
}

/// Evaluate `query` on `h` with the oracle engines: `PathExpr::locate` for
/// paths, Algorithm 1 (`two_pass::locate`) for PHRs.
fn oracle_hits(query: Query, h: &FlatHedge, ab: &mut Alphabet, phr: &mut PhrCache) -> Vec<NodeId> {
    if query.is_path() {
        parse_path(&query.text(), ab)
            .expect("benchmark paths parse")
            .locate(h)
    } else {
        two_pass::locate(phr.get(query, ab), h)
    }
}

/// PHRs compiled once per workload alphabet.
#[derive(Default)]
struct PhrCache(BTreeMap<Query, CompiledPhr>);

impl PhrCache {
    fn get(&mut self, query: Query, ab: &mut Alphabet) -> &CompiledPhr {
        self.0.entry(query).or_insert_with(|| {
            CompiledPhr::compile(&parse_phr(&query.text(), ab).expect("benchmark PHRs parse"))
        })
    }
}

/// Writes generated files and fingerprints them.
struct Writer {
    inputs: Vec<(String, u64)>,
}

impl Writer {
    fn write(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        std::fs::write(path, bytes)?;
        let name = path
            .file_name()
            .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
        self.inputs.push((name, fnv1a(bytes)));
        Ok(())
    }
}

/// Generate workload `name` for `seed` under `dir` (created fresh).
pub fn generate(
    name: &'static str,
    seed: u64,
    smoke: bool,
    dir: &Path,
) -> std::io::Result<Workload> {
    let scale = if smoke { &SMOKE } else { &FULL };
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    let docs_dir = dir.join("docs");
    std::fs::create_dir_all(&docs_dir)?;
    let store_path = dir.join("store.hxst");
    let mut out = Writer { inputs: Vec::new() };
    let mut docs: Vec<Doc> = Vec::new();
    let mut answers = BTreeMap::new();
    let mut phrs = PhrCache::default();
    let mut ab = Alphabet::new();
    let source = match name {
        "file_cold" => Source::File,
        "stream_stdin" => Source::Stdin,
        "store_corpus" => Source::Store,
        "warm_repeat" => Source::Repeat,
        other => unreachable!("unknown workload {other}"),
    };

    // The DocBook documents every workload but the store queries.
    let doc_specs: Vec<(usize, usize)> = match source {
        Source::File | Source::Stdin => (0..3)
            .flat_map(|g| (0..scale.copies).map(move |_| (g, scale.doc_sizes[g])))
            .collect(),
        Source::Repeat => (0..scale.warm_docs)
            .map(|_| (0, scale.warm_nodes))
            .collect(),
        Source::Store => Vec::new(),
    };
    for (i, &(group, nodes)) in doc_specs.iter().enumerate() {
        let cfg = DocbookConfig {
            target_nodes: nodes,
            ..DocbookConfig::default()
        };
        let h = FlatHedge::from_hedge(&docbook(&cfg, sub_seed(seed, name, i), &mut ab));
        let path = docs_dir.join(format!("n{nodes}_{i:02}.xml"));
        let xml = write_xml(&h, &ab, None);
        out.write(&path, xml.as_bytes())?;
        for query in [Query::P1, Query::Q1] {
            let hits = oracle_hits(query, &h, &mut ab, &mut phrs);
            let mut fnv = Fnv::new();
            hash_locate(&h, &hits, "", &mut fnv);
            answers.insert(
                (docs.len(), query),
                Answer {
                    matches: hits.len() as u64,
                    locate_digest: fnv.finish(),
                },
            );
        }
        docs.push(Doc {
            name: format!("n{nodes}_{i:02}"),
            path,
            xml_bytes: xml.len() as u64,
            nodes: h.num_nodes() as u64,
            events: events(&h),
            group,
        });
    }
    let index_xml_bytes = docs.iter().map(|d| d.xml_bytes).sum();

    if source == Source::Stdin {
        // A chain of `depth` only-child `a` elements: both chain queries
        // match every node, so the answers are known in closed form.
        let depth = scale.chain_depth;
        let chain_dir = dir.join("chain");
        std::fs::create_dir_all(&chain_dir)?;
        let path = chain_dir.join("chain.xml");
        let xml = format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
        out.write(&path, xml.as_bytes())?;
        let answer = Answer {
            matches: depth as u64,
            // Locate is never asked of a chain; no digest is needed.
            locate_digest: 0,
        };
        answers.insert((docs.len(), Query::ChainPath), answer);
        answers.insert((docs.len(), Query::ChainPhr), answer);
        docs.push(Doc {
            name: format!("chain{depth}"),
            path,
            xml_bytes: xml.len() as u64,
            nodes: depth as u64,
            events: 2 * depth as u64,
            group: 3,
        });
    }

    let index_dir;
    let index_xml_bytes = if source == Source::Store {
        // The E11-shaped corpus: a `sidebar` in every 20th document.
        let (mut ab, named, _) = hedgex_bench::sidebar_corpus(
            scale.store_docs,
            scale.store_doc_nodes,
            sub_seed(seed, name, 0),
        );
        let mut phrs = PhrCache::default();
        index_dir = dir.join("corpus");
        std::fs::create_dir_all(&index_dir)?;
        let mut xml_bytes = 0u64;
        for (doc_name, h) in &named {
            let xml = write_xml(h, &ab, None);
            xml_bytes += xml.len() as u64;
            out.write(&index_dir.join(doc_name), xml.as_bytes())?;
        }
        for query in [Query::P1, Query::P2, Query::Q1, Query::Q2] {
            let mut fnv = Fnv::new();
            let mut matches = 0u64;
            for (doc_name, h) in &named {
                let hits = oracle_hits(query, h, &mut ab, &mut phrs);
                matches += hits.len() as u64;
                hash_locate(h, &hits, &format!("{doc_name}:"), &mut fnv);
            }
            answers.insert(
                (0, query),
                Answer {
                    matches,
                    locate_digest: fnv.finish(),
                },
            );
        }
        docs.push(Doc {
            name: "store".into(),
            path: store_path.clone(),
            xml_bytes,
            nodes: named.iter().map(|(_, h)| h.num_nodes() as u64).sum(),
            events: 0,
            group: 0,
        });
        xml_bytes
    } else {
        index_dir = docs_dir;
        index_xml_bytes
    };

    let classes = build_classes(name, scale, &docs, seed);
    let mut fnv = Fnv::new();
    for (file, hash) in &out.inputs {
        fnv.update(format!("{file}={hash:016x}\n").as_bytes());
    }
    for (c, n) in &classes {
        fnv.update(format!("{c:?} x{n}\n").as_bytes());
    }
    Ok(Workload {
        source,
        dir: dir.to_path_buf(),
        docs,
        answers,
        classes,
        repeat: scale.repeat,
        index_dir,
        index_xml_bytes,
        store_path,
        inputs: out.inputs,
        fingerprint: fnv.finish(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Outcome;
    use crate::layers::{mirror_stream, Timer};
    use crate::report::Tally;
    use hedgex::core::canonical_key;

    /// The oracle cannot be blind: on a 1k-node document, answers that
    /// agree with it pass, and a planted wrong expectation in every mode
    /// is counted as a failure.
    #[test]
    fn planted_wrong_expectations_are_counted() {
        let mut ab = Alphabet::new();
        let cfg = DocbookConfig {
            target_nodes: 1_000,
            ..DocbookConfig::default()
        };
        let h = FlatHedge::from_hedge(&docbook(&cfg, 7, &mut ab));
        let xml = write_xml(&h, &ab, None);
        let mut phrs = PhrCache::default();
        let mut tally = Tally::default();
        for query in [Query::P1, Query::Q1] {
            let hits = oracle_hits(query, &h, &mut ab, &mut phrs);
            assert!(!hits.is_empty(), "{query:?} matches the document");
            let mut fnv = Fnv::new();
            hash_locate(&h, &hits, "", &mut fnv);
            let right = Answer {
                matches: hits.len() as u64,
                locate_digest: fnv.finish(),
            };
            for mode in [Mode::Locate, Mode::Count, Mode::Exists] {
                let wrong = Answer {
                    matches: if mode == Mode::Exists {
                        0
                    } else {
                        right.matches + 1
                    },
                    locate_digest: right.locate_digest ^ 1,
                };
                let c = Class {
                    doc: 0,
                    query,
                    mode,
                    jobs: 1,
                };
                let got = mirror_stream(&c, xml.as_bytes(), &mut Timer::new()).unwrap();
                tally.record(|| "agreeing".into(), got.check(right.expect(mode)));
                tally.record(|| "planted".into(), got.check(wrong.expect(mode)));
            }
        }
        assert_eq!((tally.attempted, tally.failed), (12, 6));
        assert!(tally.first_failure.unwrap().starts_with("planted"));

        // Exit codes, signals and timeouts fail like wrong answers.
        let want = Expect { exit: 0, digest: 9 };
        let run = |exit, timed_out| Outcome {
            exit,
            digest: 9,
            stdout_bytes: 0,
            timed_out,
            ms: 1.0,
        };
        assert!(run(Some(0), false).check(want).is_ok());
        assert!(run(Some(2), false).check(want).is_err());
        assert!(run(None, false).check(want).is_err());
        assert!(run(Some(0), true).check(want).is_err());
    }

    #[test]
    fn q1_text_is_the_bench_crates_phr() {
        let mut ab = Alphabet::new();
        let expected = hedgex_bench::figure_before_table_phr(&mut ab);
        let spelled = parse_phr(&Query::Q1.text(), &mut ab).unwrap();
        assert_eq!(canonical_key(&spelled), canonical_key(&expected));
    }

    #[test]
    fn apportion_is_exact_at_every_level() {
        assert_eq!(apportion(100, &[45, 42, 10, 3]), vec![45, 42, 10, 3]);
        assert_eq!(apportion(15, &[50, 30, 20]), vec![8, 4, 3]);
        assert_eq!(apportion(10, &[45, 42, 10, 3]), vec![5, 4, 1, 0]);
        for name in WORKLOADS {
            let mut out = Vec::new();
            expand(&mix(name), SLOTS, &mut out);
            assert_eq!(out.iter().map(|(_, n)| n).sum::<usize>(), SLOTS, "{name}");
        }
    }
}
