//! The benchmark's inputs are a pure function of its seed: the same seed
//! gives an identical request stream and identical replication edit
//! batches, and a different seed gives different ones.

use domino_perfbench::gen::{Corpus, EditBatch, EditBatches, Layout, Op, Stream};
use domino_perfbench::{repl, web, Args};

fn requests(seed: u64, spec: &web::WebSpec, phase: &str, conn: usize) -> Vec<Op> {
    let corpus = Corpus::generate(seed, spec.shape);
    let layout = Layout {
        docs: spec.shape.docs,
        stable: (spec.shape.docs as f64 * spec.stable_frac) as usize,
        lanes: 10,
    };
    let mut stream = Stream::new(
        seed,
        spec.name,
        phase,
        conn,
        2,
        conn,
        spec.mix,
        layout,
        spec.comment_bytes,
    );
    (0..2000).map(|_| stream.next(&corpus)).collect()
}

/// What the open loop of a run sends on each connection: the requests
/// and their arrival gaps, as `web::run` builds them.
fn open_loop(seed: u64, spec: &web::WebSpec) -> Vec<(Vec<Op>, Vec<f64>)> {
    let args = Args {
        workload: spec.name.into(),
        seed,
        seconds: 25.0,
        trace: false,
    };
    let corpus = Corpus::generate(seed, spec.shape);
    web::streams(&args, spec, "open", 1, Some(spec.rate))
        .into_iter()
        .map(|(mut stream, pace)| {
            let web::Pace::Open(rate) = pace else {
                panic!("the open loop is paced");
            };
            let ops = (0..500).map(|_| stream.next(&corpus)).collect();
            let gaps = (0..500).map(|_| stream.gap(rate)).collect();
            (ops, gaps)
        })
        .collect()
}

fn batches(seed: u64) -> Vec<EditBatch> {
    let mut edits = EditBatches::new(seed, repl::SHAPE.docs);
    (0..300).map(|_| edits.next_batch()).collect()
}

#[test]
fn same_seed_same_request_stream() {
    for spec in [&web::WEB_READ, &web::WEB_WRITE] {
        for conn in 0..2 {
            assert_eq!(
                requests(7, spec, "open", conn),
                requests(7, spec, "open", conn),
                "{} stream of connection {conn}",
                spec.name
            );
        }
    }
}

#[test]
fn different_seed_different_request_stream() {
    for spec in [&web::WEB_READ, &web::WEB_WRITE] {
        assert_ne!(requests(7, spec, "open", 0), requests(8, spec, "open", 0));
    }
}

#[test]
fn connections_and_phases_get_distinct_streams() {
    let spec = &web::WEB_READ;
    assert_ne!(requests(7, spec, "open", 0), requests(7, spec, "open", 1));
    assert_ne!(requests(7, spec, "open", 0), requests(7, spec, "closed", 0));
}

#[test]
fn open_loop_requests_and_arrivals_follow_the_seed() {
    for spec in [&web::WEB_READ, &web::WEB_WRITE] {
        let a = open_loop(7, spec);
        assert_eq!(a, open_loop(7, spec), "{}", spec.name);
        let b = open_loop(8, spec);
        for (conn, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_ne!(x.0, y.0, "{} requests of connection {conn}", spec.name);
            assert_ne!(x.1, y.1, "{} arrivals of connection {conn}", spec.name);
        }
        assert_ne!(a[0], a[1], "{}: the connections share a stream", spec.name);
    }
}

#[test]
fn same_seed_same_corpus() {
    let a = Corpus::generate(3, web::WEB_WRITE.shape);
    let b = Corpus::generate(3, web::WEB_WRITE.shape);
    assert_eq!(a.docs, b.docs);
    assert_ne!(a.docs, Corpus::generate(4, web::WEB_WRITE.shape).docs);
}

#[test]
fn same_seed_same_edit_batches() {
    assert_eq!(batches(11), batches(11));
    assert_ne!(batches(11), batches(12));
}

#[test]
fn edit_batches_never_touch_a_deleted_document() {
    let mut deleted = std::collections::HashSet::new();
    for batch in batches(5) {
        let touched = batch
            .only_a
            .iter()
            .map(|e| e.0)
            .chain(batch.only_b.iter().map(|e| e.0))
            .chain(batch.both.iter().map(|e| e.0))
            .chain(batch.deletes.iter().map(|e| e.0));
        let mut seen = std::collections::HashSet::new();
        for d in touched {
            assert!(
                !deleted.contains(&d),
                "document {d} edited after its deletion"
            );
            assert!(seen.insert(d), "document {d} appears twice in one batch");
        }
        deleted.extend(batch.deletes.iter().map(|e| e.0));
    }
}

#[test]
fn writes_of_one_connection_never_touch_another_connections_documents() {
    for spec in [&web::WEB_READ, &web::WEB_WRITE] {
        for conn in 0..2 {
            for op in requests(9, spec, "open", conn) {
                if let Op::Save { doc, .. } = op {
                    assert_eq!(
                        doc % 2,
                        conn,
                        "{}: save of {doc} on connection {conn}",
                        spec.name
                    );
                }
            }
        }
    }
}
