//! The per-layer metrics a traced run reports, and the breakdown of the
//! end-to-end mean into layer self times. Every workload reports every
//! name; a layer a workload does not exercise reads 0.

use domino_obs as obs;

use crate::stats::{mean, ratio};
use crate::trace::{self, mean_us, IoSnap, SpanRec};
use crate::Outcome;

pub const PER_LAYER: &[(&str, &str)] = &[
    ("netio.http_tax_us", "us"),
    ("netio.parse_us", "us"),
    ("netio.rejected", "count"),
    ("netio.wire_rtt_us", "us"),
    ("netio.wire_roundtrips_per_round", "count"),
    ("server.queue_us", "us"),
    ("server.handle_us.view", "us"),
    ("server.handle_us.doc", "us"),
    ("server.handle_us.search", "us"),
    ("server.handle_us.save", "us"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.cache_lookups", "count"),
    ("server.invalidations_per_write", "ratio"),
    ("server.render_us", "us"),
    ("server.shed_frac", "ratio"),
    ("security.access_us", "us"),
    ("security.rows_hidden_ratio", "ratio"),
    ("core.snapshot_us", "us"),
    ("core.open_doc_us", "us"),
    ("core.form_lookup_us", "us"),
    ("core.save_us", "us"),
    ("core.lock_wait_us", "us"),
    ("core.lock_waits", "count"),
    ("core.hydrations_per_read", "ratio"),
    ("core.snapshot_versions", "count"),
    ("wal.sync_us", "us"),
    ("wal.append_us", "us"),
    ("wal.syncs_per_commit", "ratio"),
    ("wal.bytes_per_commit", "B"),
    ("storage.pool_hit_ratio", "ratio"),
    ("storage.read_us", "us"),
    ("storage.reads_per_save", "ratio"),
    ("storage.writes_per_commit", "ratio"),
    ("storage.sync_us", "us"),
    ("storage.checkpoint_pages", "count"),
    ("views.page_us", "us"),
    ("views.apply_us", "us"),
    ("views.docs_evaluated_per_save", "ratio"),
    ("formula.cache_hit_ratio", "ratio"),
    ("formula.selection_hit_ratio", "ratio"),
    ("ftindex.query_us", "us"),
    ("ftindex.indexed_per_save", "ratio"),
    ("replica.pull_us", "us"),
    ("replica.candidates_per_changed_note", "ratio"),
    ("replica.negotiate_bytes_per_round", "B"),
    ("replica.conflicts", "count"),
    ("replica.bytes_per_changed_note", "B"),
    ("breakdown.e2e_mean_us", "us"),
    ("breakdown.netio_us", "us"),
    ("breakdown.server_us", "us"),
    ("breakdown.security_us", "us"),
    ("breakdown.core_us", "us"),
    ("breakdown.wal_us", "us"),
    ("breakdown.storage_us", "us"),
    ("breakdown.views_us", "us"),
    ("breakdown.ftindex_us", "us"),
    ("breakdown.replica_us", "us"),
    ("breakdown.unattributed_us", "us"),
    ("trace.untraced_mean_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

/// The layers of the breakdown, in report order.
pub const LAYERS: [&str; 9] = [
    "netio", "server", "security", "core", "wal", "storage", "views", "ftindex", "replica",
];

/// One request class's (or operation's) share of the traced end-to-end
/// mean: its weight in the mix, its traced mean, and the self time
/// attributed to each layer. Whatever the layers do not account for is
/// the unattributed remainder.
#[derive(Debug, Clone, Default)]
pub struct Part {
    pub label: &'static str,
    pub weight: f64,
    pub e2e_us: f64,
    pub layers: Vec<(&'static str, f64)>,
}

impl Part {
    pub fn add(&mut self, layer: &'static str, us: f64) {
        self.layers.push((layer, us));
    }

    fn layer(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .filter(|(l, _)| *l == name)
            .fold(0.0, |acc, (_, v)| acc + v)
    }

    fn unattributed(&self) -> f64 {
        self.e2e_us - self.layers.iter().fold(0.0, |acc, (_, v)| acc + v)
    }
}

/// Report the weighted breakdown over `parts`, its per-class table, and
/// the tracing overhead against the untraced mean.
pub fn report_breakdown(out: &mut Outcome, parts: &[Part], untraced_mean_us: f64, spans: usize) {
    let total_w: f64 = parts.iter().map(|p| p.weight).sum();
    let w = |p: &Part| ratio(p.weight, total_w);
    let e2e = parts.iter().fold(0.0, |acc, p| acc + w(p) * p.e2e_us);
    out.line(format!(
        "breakdown of the traced end-to-end mean ({e2e:.1} us) into layer self time:"
    ));
    let mut header = format!("  {:<16} {:>7}", "class", "share");
    for l in LAYERS {
        header.push_str(&format!(" {l:>9}"));
    }
    header.push_str(&format!(" {:>9} {:>9}", "unattr", "e2e_us"));
    out.line(header);
    for p in parts {
        let mut row = format!("  {:<16} {:>6.1}%", p.label, 100.0 * w(p));
        for l in LAYERS {
            row.push_str(&format!(" {:>9.1}", p.layer(l)));
        }
        row.push_str(&format!(" {:>9.1} {:>9.1}", p.unattributed(), p.e2e_us));
        out.line(row);
    }
    let mut row = format!("  {:<16} {:>7}", "share of e2e", "");
    let mut accounted = 0.0;
    for l in LAYERS {
        let v = parts.iter().fold(0.0, |acc, p| acc + w(p) * p.layer(l));
        accounted += v;
        row.push_str(&format!(" {:>8.1}%", 100.0 * ratio(v, e2e)));
        out.layer(format!("breakdown.{l}_us"), v, "us");
    }
    let unattributed = e2e - accounted;
    row.push_str(&format!(
        " {:>8.1}% {:>9}",
        100.0 * ratio(unattributed, e2e),
        "100%"
    ));
    out.line(row);
    out.layer("breakdown.e2e_mean_us", e2e, "us");
    out.layer("breakdown.unattributed_us", unattributed, "us");
    out.layer("trace.untraced_mean_us", untraced_mean_us, "us");
    let overhead = ratio(e2e - untraced_mean_us, untraced_mean_us);
    out.layer("trace.overhead_frac", overhead, "ratio");
    out.layer("trace.spans", spans as f64, "count");
    out.line(format!(
        "tracing overhead: traced mean {e2e:.1} us vs untraced {untraced_mean_us:.1} us ({:+.1}%)",
        100.0 * overhead
    ));
}

/// Histogram `sum / count` of a registry delta (exact; no buckets).
pub fn hist_mean(delta: &obs::Snapshot, name: &str) -> f64 {
    let h = delta.histogram(name);
    ratio(h.sum as f64, h.count as f64)
}

/// Counter-derived metrics every workload reports from its registry delta
/// and the wrapper counters.
pub fn common(out: &mut Outcome, delta: &obs::Snapshot, io: &IoSnap) {
    let c = |n: &str| delta.counter(n) as f64;
    let commits = c("Database.Txn.Commits");
    let saves = c("Database.Notes.Saved");
    out.layer(
        "core.save_us",
        hist_mean(delta, "Database.Save.Micros"),
        "us",
    );
    out.layer(
        "core.lock_wait_us",
        hist_mean(delta, "Db.Lock.Wait.Micros"),
        "us",
    );
    out.layer("core.lock_waits", c("Db.Lock.Waits"), "count");
    out.layer(
        "core.snapshot_versions",
        obs::snapshot().gauge("Db.Snapshot.Versions") as f64,
        "count",
    );
    out.layer("wal.sync_us", mean_us(io.log_sync), "us");
    out.layer("wal.append_us", mean_us(io.log_append), "us");
    out.layer(
        "wal.syncs_per_commit",
        ratio(io.log_sync.0 as f64, commits),
        "ratio",
    );
    out.layer(
        "wal.bytes_per_commit",
        ratio(io.log_append.2 as f64, commits),
        "B",
    );
    let hits = c("Database.Pool.Hits");
    out.layer(
        "storage.pool_hit_ratio",
        ratio(hits, hits + c("Database.Pool.Misses")),
        "ratio",
    );
    out.layer("storage.read_us", mean_us(io.disk_read), "us");
    out.layer(
        "storage.reads_per_save",
        ratio(io.disk_read.0 as f64, saves),
        "ratio",
    );
    out.layer(
        "storage.writes_per_commit",
        ratio(io.disk_write.0 as f64, commits),
        "ratio",
    );
    out.layer("storage.sync_us", mean_us(io.disk_sync), "us");
    out.layer(
        "storage.checkpoint_pages",
        c("Database.Checkpoint.PagesWritten"),
        "count",
    );
    out.layer(
        "views.docs_evaluated_per_save",
        ratio(c("View.Documents.Evaluated"), saves),
        "ratio",
    );
    let fh = c("Formula.Cache.Hits");
    out.layer(
        "formula.cache_hit_ratio",
        ratio(fh, fh + c("Formula.Cache.Misses")),
        "ratio",
    );
    let sh = c("View.SelectionCache.Hits");
    out.layer(
        "formula.selection_hit_ratio",
        ratio(sh, sh + c("View.SelectionCache.Misses")),
        "ratio",
    );
    out.layer(
        "ftindex.query_us",
        hist_mean(delta, "Ft.Query.Micros"),
        "us",
    );
    out.layer(
        "ftindex.indexed_per_save",
        ratio(c("Ft.Notes.Indexed"), saves),
        "ratio",
    );
}

/// Mean duration in microseconds of the root spans named `name`.
pub fn root_mean_us(spans: &[SpanRec], name: &str) -> f64 {
    let v: Vec<f64> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    mean(&v)
}

/// The replicate workload's layer metrics and breakdown.
pub fn replicate(
    out: &mut Outcome,
    delta: &obs::Snapshot,
    io: &IoSnap,
    spans: &[SpanRec],
    traced: crate::repl::TracedRounds,
    untraced_mean_ms: f64,
) {
    common(out, delta, io);
    let rounds = traced.rounds.len() as f64;
    out.layer(
        "replica.pull_us",
        root_child_mean_us(spans, "replica.pull"),
        "us",
    );
    out.layer(
        "replica.candidates_per_changed_note",
        ratio(traced.candidates as f64, traced.changed as f64),
        "ratio",
    );
    out.layer(
        "replica.negotiate_bytes_per_round",
        ratio(traced.negotiation_bytes as f64, rounds),
        "B",
    );
    out.layer("replica.conflicts", traced.conflicts as f64, "count");
    out.layer(
        "replica.bytes_per_changed_note",
        ratio(traced.bytes as f64, traced.changed as f64),
        "B",
    );
    let wire: Vec<&SpanRec> = spans.iter().filter(|s| s.name == "netio.wire").collect();
    out.layer(
        "netio.wire_rtt_us",
        mean(
            &wire
                .iter()
                .map(|s| s.dur_ns() as f64 / 1e3)
                .collect::<Vec<_>>(),
        ),
        "us",
    );
    out.layer(
        "netio.wire_roundtrips_per_round",
        ratio(wire.len() as f64, rounds),
        "count",
    );
    let b = trace::breakdown(spans);
    let mut part = Part {
        label: "round",
        weight: 1.0,
        ..Part::default()
    };
    if let Some(r) = b.get("round") {
        let n = r.count.max(1) as f64;
        part.e2e_us = r.total_ns as f64 / n / 1e3;
        for (layer, ns) in &r.self_ns {
            let us = *ns as f64 / n / 1e3;
            match *layer {
                "replica" | "netio" | "wal" | "storage" => part.add(layer, us),
                _ => {}
            }
        }
    }
    report_breakdown(out, &[part], untraced_mean_ms * 1e3, spans.len());
}

/// Mean duration of spans named `name` whatever their parent.
fn root_child_mean_us(spans: &[SpanRec], name: &str) -> f64 {
    let v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    mean(&v)
}
