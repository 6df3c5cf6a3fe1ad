//! Pinned two-pass results on a fixed document.
//!
//! These expectations are hard-coded so the suite can run under both
//! feature configurations (`--no-default-features` compiles the obs
//! instrumentation out) and prove the match sets are identical either
//! way — instrumentation must observe, never perturb.

use hedgex::prelude::*;

const DOC: &str = "\
<article>
  <title>T</title>
  <section>
    <title>S1</title>
    <figure><caption>f1</caption></figure>
    <section>
      <figure><caption>f2</caption></figure>
    </section>
  </section>
</article>";

fn dewey_strings(flat: &FlatHedge, hits: &[u32]) -> Vec<String> {
    hits.iter()
        .map(|&n| {
            let parts: Vec<String> = flat.dewey(n).iter().map(u32::to_string).collect();
            format!("/{}", parts.join("/"))
        })
        .collect()
}

fn load(src: &str) -> (Alphabet, FlatHedge) {
    let mut ab = Alphabet::new();
    let doc = parse_xml(src).expect("fixture parses");
    let hedge = to_hedge(
        &doc,
        &mut ab,
        HedgeConfig {
            keep_text: true,
            keep_attrs: false,
        },
    );
    (ab, FlatHedge::from_hedge(&hedge))
}

#[test]
fn path_query_hits_are_pinned() {
    let (mut ab, flat) = load(DOC);
    let path = parse_path("article section* figure", &mut ab).unwrap();

    // Direct declarative evaluation.
    let direct = path.locate(&flat);
    assert_eq!(dewey_strings(&flat, &direct), ["/1/2/2", "/1/2/3/1"]);

    // The Section 5 embedding through the compiled two-pass pipeline must
    // find the same nodes.
    let syms: Vec<_> = ab.syms().collect();
    let vars: Vec<_> = ab.vars().collect();
    let z = ab.sub("pinned-universal");
    let phr = path.to_phr(&syms, &vars, z);
    let compiled = CompiledPhr::compile(&phr);
    let two_pass_hits = two_pass::locate(&compiled, &flat);
    assert_eq!(two_pass_hits, direct);
}

#[test]
fn phr_query_hits_are_pinned() {
    let (mut ab, flat) = load("<a><b/><c/><b/></a>");
    // Select b nodes with at least one elder sibling, under a.
    let u = "(a<%z>|b<%z>|c<%z>)*^z";
    let phr = parse_phr(
        &format!("[(a<{u}>|b<{u}>|c<{u}>)({u}) ; b ; {u}][{u} ; a ; {u}]"),
        &mut ab,
    )
    .unwrap();
    let compiled = CompiledPhr::compile(&phr);
    let hits = two_pass::locate(&compiled, &flat);
    assert_eq!(dewey_strings(&flat, &hits), ["/1/3"]);
}

/// The report of a `hedgex::run` describes the run that answered, and its
/// answer equals the reference evaluators' with obs on or off.
#[test]
fn explain_agrees_with_locate_in_both_configs() {
    use hedgex::core::plan::Backend;
    use hedgex::run::{Query, Source};
    let file = std::env::temp_dir().join(format!("hedgex-pinned-{}.xml", std::process::id()));
    std::fs::write(&file, DOC).unwrap();
    let (mut ab, flat) = load(DOC);
    let path = parse_path("article section* figure", &mut ab).unwrap();
    let syms: Vec<_> = ab.syms().collect();
    let vars: Vec<_> = ab.vars().collect();
    let z = ab.sub("pinned-universal");
    let embedded = path.to_phr(&syms, &vars, z);
    let expected = path.locate(&flat);
    assert_eq!(
        two_pass::locate(&CompiledPhr::compile(&embedded), &flat),
        expected
    );
    assert_eq!(dewey_strings(&flat, &expected), ["/1/2/2", "/1/2/3/1"]);

    for mode in [EvalMode::Locate, EvalMode::Count, EvalMode::Exists] {
        let req = hedgex::Request {
            source: Source::File(file.to_str().unwrap().into()),
            query: Query::Path("article section* figure".into()),
            subhedge: None,
            mode,
            mark: false,
            config: HedgeConfig::default(),
            repeat: None,
            jobs: 1,
            report: true,
        };
        let mut out = Vec::new();
        let ran = hedgex::run(&req, &mut out).expect("the run answers");
        let report = ran.report.expect("a report was requested");
        let stdout = String::from_utf8(out).unwrap();
        match mode {
            EvalMode::Locate => {
                assert_eq!(stdout, "/1/2/2\n/1/2/3/1\n");
                assert_eq!(report.located, 2);
            }
            EvalMode::Count => {
                assert_eq!(stdout, "2\n");
                assert_eq!(report.located, 2);
            }
            EvalMode::Exists => {
                assert!(stdout.is_empty());
                assert_eq!(report.located, 1);
            }
        }
        assert!(ran.outcome.is_match());
        // A path query over a file streams: Exists stops reading at the
        // first match, so it has read exactly the nodes up to that match's
        // preorder rank.
        let read = match mode {
            EvalMode::Exists => expected[0] as u64 + 1,
            _ => flat.num_nodes() as u64,
        };
        assert_eq!(report.nodes, read);
        // Structural fields are independent of the obs feature.
        let Backend::Path(dfa) = report.plan.backend() else {
            panic!("a path run reports its DFA")
        };
        assert!(dfa.num_states() > 0);
    }
    std::fs::remove_file(&file).ok();
}
