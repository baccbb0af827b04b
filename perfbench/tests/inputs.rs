//! The seed fixes every input: the same seed gives byte-identical
//! corpora, goal streams and edit streams, and another seed changes them.

use perfbench::inputs::{batch_corpus, goal_stream, megafile, EditKind, EditScript, Sizes};

const SIZES: Sizes = Sizes::SMOKE;

fn sources(corpus: &dml_oracle::ScaleCorpus) -> Vec<String> {
    corpus.cases.iter().map(|c| c.source.clone()).collect()
}

fn edits(seed: u64, n: usize) -> Vec<(EditKind, String)> {
    let mut script = EditScript::new(seed, SIZES.session_obligations);
    (0..n).map(|_| script.next()).map(|r| (r.kind, r.source)).collect()
}

#[test]
fn corpora_repeat_per_seed_and_differ_across_seeds() {
    assert_eq!(sources(&batch_corpus(11, &SIZES)), sources(&batch_corpus(11, &SIZES)));
    assert_ne!(sources(&batch_corpus(11, &SIZES)), sources(&batch_corpus(12, &SIZES)));
    assert_eq!(sources(&megafile(11, &SIZES)), sources(&megafile(11, &SIZES)));
    assert_ne!(sources(&megafile(11, &SIZES)), sources(&megafile(12, &SIZES)));
    assert_ne!(
        sources(&batch_corpus(11, &SIZES)),
        sources(&megafile(11, &SIZES)),
        "workloads draw from independent sub-seeds"
    );
}

#[test]
fn goal_streams_repeat_per_seed_and_differ_across_seeds() {
    let render = |seed| goal_stream(seed, 200).0.iter().map(|g| g.to_string()).collect::<Vec<_>>();
    assert_eq!(render(3), render(3));
    assert_ne!(render(3), render(4));
}

#[test]
fn edit_streams_repeat_per_seed_and_differ_across_seeds() {
    assert_eq!(edits(5, 40), edits(5, 40));
    assert_ne!(edits(5, 40), edits(6, 40));
}

#[test]
fn edit_stream_mixes_kinds_and_keeps_stamps_honest() {
    let mut script = EditScript::new(9, SIZES.session_obligations);
    let mut previous = script.current(EditKind::Unchanged);
    let mut counts = [0usize; 3];
    for _ in 0..400 {
        let r = script.next();
        counts[EditKind::ALL.iter().position(|k| *k == r.kind).expect("known kind")] += 1;
        match r.kind {
            EditKind::Unchanged => assert_eq!(r.source, previous.source),
            // A body edit rewrites one index expression: same sites, same
            // verdicts, another text.
            EditKind::Body => {
                assert_eq!(r.expected, previous.expected);
                assert_ne!(r.source, previous.source);
            }
            EditKind::Structural => {}
        }
        previous = r;
    }
    // Exactly half body edits and a quarter each of the others.
    assert_eq!(counts, [200, 100, 100]);
}
