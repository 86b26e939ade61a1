//! Seeded input generation: the corpus, the directory of users, the HTTP
//! request streams and the replication edit batches.
//!
//! Everything here is a pure function of the seed. The program under test
//! only ever sees the rendered requests; the model kept here (who may read
//! which document, which documents are live) is what the correctness checks
//! judge responses against.

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean (Poisson arrival gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Zipf-distributed ranks `0..n`: rank 0 is the most popular.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(exponent);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Directory users, groups ("teams") and roles.
pub const USERS: usize = 320;
pub const TEAMS: usize = 16;
pub const ROLES: usize = 4;
/// Distinct words the documents and queries draw from.
pub const VOCABULARY: usize = 3000;
/// Rows per view page (Domino's default `Count`).
pub const PAGE_ROWS: usize = 30;
/// Document categories (the categorized view's first column).
pub const CATEGORIES: usize = 24;

pub fn user_name(u: usize) -> String {
    format!("user{u:03}")
}

pub fn user_password(u: usize) -> String {
    format!("pw-{u:03}-secret")
}

pub fn team_name(t: usize) -> String {
    format!("team{t:02}")
}

/// The teams user `u` belongs to: a home team and, for every third user,
/// a second one.
pub fn teams_of(u: usize) -> Vec<usize> {
    let home = u % TEAMS;
    if u.is_multiple_of(3) {
        vec![home, (home + 5) % TEAMS]
    } else {
        vec![home]
    }
}

/// The ACL role a team's entry carries.
pub fn role_of_team(t: usize) -> usize {
    t % ROLES
}

pub fn role_name(r: usize) -> String {
    format!("R{r}")
}

pub fn word(w: usize) -> String {
    // Letters only, so the full-text tokenizer keeps each word whole; the
    // `k` prefix keeps every word clear of the stop-word list.
    let mut s = String::from("k");
    let mut x = w;
    loop {
        s.push((b'a' + (x % 26) as u8) as char);
        x /= 26;
        if x == 0 {
            break;
        }
    }
    s
}

/// Who may read a document: `None` means unrestricted (no `$Readers`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Readers {
    Team(usize),
    Role(usize),
    User(usize),
}

impl Readers {
    /// The `$Readers` entry as stored in the note.
    pub fn entry(&self) -> String {
        match self {
            Readers::Team(t) => team_name(*t),
            Readers::Role(r) => format!("[{}]", role_name(*r)),
            Readers::User(u) => user_name(*u),
        }
    }

    pub fn admits(&self, u: usize) -> bool {
        match self {
            Readers::Team(t) => teams_of(u).contains(t),
            Readers::Role(r) => teams_of(u).iter().any(|t| role_of_team(*t) == *r),
            Readers::User(v) => *v == u,
        }
    }
}

/// One generated corpus document.
#[derive(Debug, Clone, PartialEq)]
pub struct DocSpec {
    pub subject: String,
    pub category: String,
    pub body: String,
    /// An attachment (`$FILE`): stored and replicated, never indexed.
    pub attachment: String,
    pub readers: Option<Readers>,
}

/// Sizes of a corpus.
#[derive(Debug, Clone, Copy)]
pub struct CorpusShape {
    pub docs: usize,
    /// Approximate bytes of body text per document.
    pub body_bytes: usize,
    /// Bytes of attachment per document (0: none).
    pub attachment_bytes: usize,
    /// Share of documents carrying `$Readers`.
    pub restricted: f64,
}

/// The seeded corpus plus the reader model the checks use.
pub struct Corpus {
    pub docs: Vec<DocSpec>,
}

impl Corpus {
    pub fn generate(seed: u64, shape: CorpusShape) -> Corpus {
        let mut rng = Rng::new(seed, "corpus");
        let words = Zipf::new(VOCABULARY, 1.0);
        let mut docs = Vec::with_capacity(shape.docs);
        for i in 0..shape.docs {
            let subject = format!(
                "{} {} {i}",
                word(words.sample(&mut rng)),
                word(rng.below(VOCABULARY))
            );
            let category = format!("cat{:02}", rng.below(CATEGORIES));
            let body = text(&mut rng, &words, shape.body_bytes);
            let attachment = (0..shape.attachment_bytes)
                .map(|_| {
                    let x = rng.below(62) as u8;
                    match x {
                        0..=25 => (b'a' + x) as char,
                        26..=51 => (b'A' + x - 26) as char,
                        _ => (b'0' + x - 52) as char,
                    }
                })
                .collect();
            let readers = if rng.unit() < shape.restricted {
                Some(match rng.below(10) {
                    0..=4 => Readers::Team(rng.below(TEAMS)),
                    5..=7 => Readers::Role(rng.below(ROLES)),
                    _ => Readers::User(rng.below(USERS)),
                })
            } else {
                None
            };
            docs.push(DocSpec {
                subject,
                category,
                body,
                attachment,
                readers,
            });
        }
        Corpus { docs }
    }

    pub fn readable(&self, doc: usize, user: usize) -> bool {
        self.docs[doc]
            .readers
            .as_ref()
            .is_none_or(|r| r.admits(user))
    }
}

/// Zipf-drawn words until `bytes` is reached.
pub fn text(rng: &mut Rng, words: &Zipf, bytes: usize) -> String {
    let mut s = String::with_capacity(bytes + 16);
    while s.len() < bytes {
        if !s.is_empty() {
            s.push(' ');
        }
        s.push_str(&word(words.sample(rng)));
    }
    s
}

/// The request classes of the HTTP workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    OpenView,
    ReadViewEntries,
    OpenDocument,
    SearchView,
    SaveDocument,
    CreateDocument,
    DeleteDocument,
}

impl Class {
    pub fn is_write(self) -> bool {
        matches!(
            self,
            Class::SaveDocument | Class::CreateDocument | Class::DeleteDocument
        )
    }

    pub fn name(self) -> &'static str {
        match self {
            Class::OpenView => "OpenView",
            Class::ReadViewEntries => "ReadViewEntries",
            Class::OpenDocument => "OpenDocument",
            Class::SearchView => "SearchView",
            Class::SaveDocument => "SaveDocument",
            Class::CreateDocument => "CreateDocument",
            Class::DeleteDocument => "DeleteDocument",
        }
    }
}

/// One generated operation, before document indices become UNIDs.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    View {
        json: bool,
        view: usize,
        start: usize,
        user: usize,
    },
    Open {
        doc: usize,
        user: usize,
    },
    Search {
        query: String,
        user: usize,
    },
    Save {
        doc: usize,
        user: usize,
        subject: String,
        comment: String,
        rev: String,
    },
    Create {
        user: usize,
        subject: String,
        category: String,
        rev: String,
    },
    Delete {
        doc: usize,
        user: usize,
    },
}

impl Op {
    pub fn class(&self) -> Class {
        match self {
            Op::View { json: false, .. } => Class::OpenView,
            Op::View { json: true, .. } => Class::ReadViewEntries,
            Op::Open { .. } => Class::OpenDocument,
            Op::Search { .. } => Class::SearchView,
            Op::Save { .. } => Class::SaveDocument,
            Op::Create { .. } => Class::CreateDocument,
            Op::Delete { .. } => Class::DeleteDocument,
        }
    }

    pub fn user(&self) -> usize {
        match self {
            Op::View { user, .. }
            | Op::Open { user, .. }
            | Op::Search { user, .. }
            | Op::Save { user, .. }
            | Op::Create { user, .. }
            | Op::Delete { user, .. } => *user,
        }
    }
}

/// Names of the views every web deployment serves.
pub const VIEWS: [&str; 2] = ["bysubject", "bycategory"];

/// A request mix in percent per class (reads first).
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub open_view: u32,
    pub read_entries: u32,
    pub open_doc: u32,
    pub search: u32,
    pub save: u32,
    pub create: u32,
    pub delete: u32,
}

impl Mix {
    /// Share of requests that are writes.
    pub fn write_share(&self) -> f64 {
        let w = self.save + self.create + self.delete;
        let r = self.open_view + self.read_entries + self.open_doc + self.search;
        f64::from(w) / f64::from(w + r)
    }

    fn pick(&self, rng: &mut Rng) -> Class {
        let parts = [
            (self.open_view, Class::OpenView),
            (self.read_entries, Class::ReadViewEntries),
            (self.open_doc, Class::OpenDocument),
            (self.search, Class::SearchView),
            (self.save, Class::SaveDocument),
            (self.create, Class::CreateDocument),
            (self.delete, Class::DeleteDocument),
        ];
        let total: u32 = parts.iter().map(|p| p.0).sum();
        let mut x = rng.below(total as usize) as u32;
        for (w, c) in parts {
            if x < w {
                return c;
            }
            x -= w;
        }
        unreachable!("weights sum to total")
    }
}

/// Where a stream's documents come from. Corpus documents `0..stable` are
/// read and edited; `stable..docs` may be deleted, each exactly once, and
/// are never targeted by reads, so no response depends on how two
/// connections interleave.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    pub docs: usize,
    pub stable: usize,
    /// Parallel streams (connections) and phases that share the doomed
    /// range: stream `lane` of `lanes` deletes doomed documents
    /// `stable + lane, stable + lane + lanes, ...`.
    pub lanes: usize,
}

/// The request stream of one connection in one phase. Saves only target
/// documents with `doc % conns == conn`, so no two connections ever edit
/// the same document and every edit's outcome is predictable.
pub struct Stream {
    rng: Rng,
    /// Poisson arrival gaps of the open loop, apart from `rng` so that the
    /// requests do not depend on the pacing.
    arrivals: Rng,
    mix: Mix,
    layout: Layout,
    conn: usize,
    conns: usize,
    next_doomed: usize,
    seq: u64,
    tag: String,
    doc_zipf: Zipf,
    page_zipf: Zipf,
    word_zipf: Zipf,
    comment_bytes: usize,
}

impl Stream {
    /// `phase` names the phase (`"closed"`, `"open"`, ...); `lane` is this
    /// (phase, connection)'s slot in the doomed range.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        seed: u64,
        workload: &str,
        phase: &str,
        conn: usize,
        conns: usize,
        lane: usize,
        mix: Mix,
        layout: Layout,
        comment_bytes: usize,
    ) -> Stream {
        let pages = layout.stable.div_ceil(PAGE_ROWS).max(1);
        Stream {
            rng: Rng::new(seed, &format!("{workload}/{phase}/{lane}")),
            arrivals: Rng::new(seed, &format!("{workload}/{phase}/{lane}/arrivals")),
            mix,
            layout,
            conn,
            conns,
            next_doomed: layout.stable + lane,
            seq: 0,
            tag: format!("{phase}-{conn}"),
            doc_zipf: Zipf::new(layout.stable, 0.9),
            page_zipf: Zipf::new(pages, 1.1),
            word_zipf: Zipf::new(VOCABULARY, 1.0),
            comment_bytes,
        }
    }

    /// A stable document, Zipf-skewed: popular ranks are scattered over the
    /// corpus by a fixed multiplicative permutation.
    fn skewed_doc(&mut self) -> usize {
        let rank = self.doc_zipf.sample(&mut self.rng);
        (rank * 7919 + 13) % self.layout.stable
    }

    /// A stable document this connection owns, readable by `user`.
    fn owned_doc(&mut self, corpus: &Corpus, user: usize) -> usize {
        let mut d = self.skewed_doc();
        loop {
            if d % self.conns == self.conn && corpus.readable(d, user) {
                return d;
            }
            d = (d + 1) % self.layout.stable;
        }
    }

    fn rev(&mut self) -> String {
        self.seq += 1;
        format!("{}-{}", self.tag, self.seq)
    }

    pub fn next(&mut self, corpus: &Corpus) -> Op {
        let user = self.rng.below(USERS);
        let mut class = self.mix.pick(&mut self.rng);
        if class == Class::DeleteDocument && self.next_doomed >= self.layout.docs {
            // The doomed range is used up: keep the write share.
            class = Class::CreateDocument;
        }
        match class {
            Class::OpenView | Class::ReadViewEntries => Op::View {
                json: class == Class::ReadViewEntries,
                view: self.rng.below(VIEWS.len()),
                start: 1 + self.page_zipf.sample(&mut self.rng) * PAGE_ROWS,
                user,
            },
            Class::OpenDocument => Op::Open {
                doc: self.skewed_doc(),
                user,
            },
            Class::SearchView => {
                let a = word(self.word_zipf.sample(&mut self.rng));
                let query = if self.rng.below(5) == 0 {
                    format!("{a} AND {}", word(self.word_zipf.sample(&mut self.rng)))
                } else {
                    a
                };
                Op::Search { query, user }
            }
            Class::SaveDocument => {
                let doc = self.owned_doc(corpus, user);
                let subject = format!(
                    "{} {} edited",
                    word(self.word_zipf.sample(&mut self.rng)),
                    word(self.rng.below(VOCABULARY))
                );
                let comment = text(&mut self.rng, &self.word_zipf, self.comment_bytes);
                let rev = self.rev();
                Op::Save {
                    doc,
                    user,
                    subject,
                    comment,
                    rev,
                }
            }
            Class::CreateDocument => {
                let subject = format!(
                    "{} {} new",
                    word(self.word_zipf.sample(&mut self.rng)),
                    word(self.rng.below(VOCABULARY))
                );
                let category = format!("cat{:02}", self.rng.below(CATEGORIES));
                let rev = self.rev();
                Op::Create {
                    user,
                    subject,
                    category,
                    rev,
                }
            }
            Class::DeleteDocument => {
                let doc = self.next_doomed;
                self.next_doomed += self.layout.lanes;
                let user = (user..user + USERS)
                    .map(|u| u % USERS)
                    .find(|u| corpus.readable(doc, *u))
                    .expect("every document has a reader");
                Op::Delete { doc, user }
            }
        }
    }

    /// Seconds from one request's due time to the next at `rate`
    /// requests per second (Poisson arrivals).
    pub fn gap(&mut self, rate: f64) -> f64 {
        self.arrivals.exp(1.0 / rate)
    }
}

/// Percent-encode a form or query value.
pub fn encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' => out.push(b as char),
            b' ' => out.push('+'),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// One replication round's edits. Document indices address the shared
/// corpus; `both` are edited on each replica with different values (one
/// replication conflict each), `deletes` are deleted on the given side.
#[derive(Debug, Clone, PartialEq)]
pub struct EditBatch {
    pub only_a: Vec<(usize, String)>,
    pub only_b: Vec<(usize, String)>,
    pub both: Vec<(usize, String, String)>,
    pub deletes: Vec<(usize, bool)>,
}

/// The seeded sequence of replication edit batches. A deleted document is
/// never touched again, and the documents of one batch are distinct.
pub struct EditBatches {
    rng: Rng,
    docs: usize,
    deleted: Vec<bool>,
    live: usize,
    zipf: Zipf,
    words: Zipf,
    round: u64,
}

impl EditBatches {
    pub fn new(seed: u64, docs: usize) -> EditBatches {
        EditBatches {
            rng: Rng::new(seed, "replicate/edits"),
            docs,
            deleted: vec![false; docs],
            live: docs,
            zipf: Zipf::new(docs, 0.8),
            words: Zipf::new(VOCABULARY, 1.0),
            round: 0,
        }
    }

    fn pick(&mut self, taken: &mut Vec<usize>) -> usize {
        let mut d = (self.zipf.sample(&mut self.rng) * 7919 + 13) % self.docs;
        while self.deleted[d] || taken.contains(&d) {
            d = (d + 1) % self.docs;
        }
        taken.push(d);
        d
    }

    fn value(&mut self, side: &str) -> String {
        format!(
            "{} {} r{}{side}",
            word(self.words.sample(&mut self.rng)),
            word(self.words.sample(&mut self.rng)),
            self.round
        )
    }

    /// Batches handed out so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    pub fn next_batch(&mut self) -> EditBatch {
        self.round += 1;
        let mut taken = Vec::new();
        // Every round does the same amount of work, so that a round-time
        // percentile measures the system rather than which batch sizes the
        // seed happened to draw: 5 edits on each side, one document edited
        // on both (one conflict), and one deletion every fourth round while
        // more than half the corpus is alive.
        let (n_a, n_b, n_both) = (5, 5, 1);
        let n_del = usize::from(self.round.is_multiple_of(4) && self.live > self.docs / 2);
        let mut batch = EditBatch {
            only_a: Vec::new(),
            only_b: Vec::new(),
            both: Vec::new(),
            deletes: Vec::new(),
        };
        for _ in 0..n_a {
            let d = self.pick(&mut taken);
            let v = self.value("a");
            batch.only_a.push((d, v));
        }
        for _ in 0..n_b {
            let d = self.pick(&mut taken);
            let v = self.value("b");
            batch.only_b.push((d, v));
        }
        for _ in 0..n_both {
            let d = self.pick(&mut taken);
            let (va, vb) = (self.value("a"), self.value("b"));
            batch.both.push((d, va, vb));
        }
        for _ in 0..n_del {
            let d = self.pick(&mut taken);
            let on_a = self.rng.below(2) == 0;
            self.deleted[d] = true;
            self.live -= 1;
            batch.deletes.push((d, on_a));
        }
        batch
    }
}
