//! Historical-incident retrieval with temporal-decay similarity.
//!
//! Paper §4.2.2:
//!
//! ```text
//! Distance(a,b)   = ‖a − b‖₂
//! Similarity(a,b) = 1/(1 + Distance(a,b)) · e^(−α·|T(a) − T(b)|)
//! ```
//!
//! with the top-K neighbors drawn from *distinct* categories so the
//! demonstrations stay diverse. `α` is measured per day; the paper's best
//! values are `K = 5`, `α = 0.3`.
//!
//! Every index answers with one exact algorithm, the *time-outward
//! scan*. Since `1/(1 + d) ≤ 1`, an entry's decay factor `e^(−α·|Δt|)`
//! bounds its similarity. Entries are therefore visited in increasing
//! `|Δt|` from the query time, and the scan stops once that bound falls
//! strictly below the `k`-th best distinct-category similarity found so
//! far: nothing left can enter the answer or win a tie. The answer —
//! entries, order and similarities — equals [`linear_top_k_diverse`]
//! applied to every visible entry (property-tested below).

use rcacopilot_telemetry::time::SimTime;
use rcacopilot_textkit::ngram::Fnv1a;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, MutexGuard};

/// How retrieval finds its candidates. There is one exact path — the
/// time-outward scan — so `Exact` is the only backend;
/// [`ShardedHistoricalIndex::warm_with`] accepts it for callers that
/// name the backend explicitly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RetrievalBackend {
    /// The exact time-outward scan.
    #[default]
    Exact,
}

/// Retrieval hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetrievalConfig {
    /// Demonstrations per prompt.
    pub k: usize,
    /// Temporal decay rate per day.
    pub alpha: f64,
}

impl Default for RetrievalConfig {
    fn default() -> Self {
        RetrievalConfig { k: 5, alpha: 0.3 }
    }
}

/// One indexed historical incident.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoricalEntry {
    /// Caller-assigned id (index into the training set).
    pub id: usize,
    /// Root-cause category label.
    pub category: String,
    /// Summarized diagnostic information (prompt demonstration text).
    pub summary: String,
    /// When the incident occurred.
    pub at: SimTime,
    /// Embedding of the incident's (raw) diagnostic information.
    pub embedding: Vec<f32>,
}

/// A retrieved neighbor with its similarity.
#[derive(Debug, Clone, PartialEq)]
pub struct Neighbor<'a> {
    /// The matched historical entry.
    pub entry: &'a HistoricalEntry,
    /// Similarity per the paper's formula.
    pub similarity: f64,
}

/// The paper's similarity formula.
pub fn similarity(distance: f64, delta_days: f64, alpha: f64) -> f64 {
    (1.0 / (1.0 + distance)) * decay(delta_days, alpha)
}

/// The temporal-decay factor `e^(−α·|Δt|)`: the similarity of a
/// zero-distance match, hence an upper bound on any similarity at that
/// time gap.
fn decay(delta_days: f64, alpha: f64) -> f64 {
    (-alpha * delta_days.abs()).exp()
}

/// 64-bit FNV-1a hash of a byte string — the stable hash behind shard
/// routing (and the serving plane's content-hash memo caches).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shard a category routes to under `shards`-way partitioning.
///
/// Category-keyed routing is what makes the cross-shard merge exact
/// cheaply: every entry of a category lives in exactly one shard, so a
/// shard's per-category best is already the *global* per-category best,
/// and the merge only has to rank whole categories.
pub fn shard_for_category(category: &str, shards: usize) -> usize {
    if shards <= 1 {
        0
    } else {
        (fnv1a(category.as_bytes()) % shards as u64) as usize
    }
}

fn euclidean(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = (*x - *y) as f64;
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// The retrieval contract stated directly: score every entry, stable-sort
/// by similarity (ties keep slice order), and keep the first entry of
/// each new category until `k` are chosen (paper §4.2.2: "we select the
/// top K incidents from different categories as demonstrations").
///
/// `O(n log n)` per query. The indexes answer with the time-outward scan
/// instead; this is the reference it is checked against.
pub fn linear_top_k_diverse<'a>(
    entries: &'a [HistoricalEntry],
    query_embedding: &[f32],
    query_time: SimTime,
    config: &RetrievalConfig,
) -> Vec<Neighbor<'a>> {
    let mut scored: Vec<Neighbor<'a>> = entries
        .iter()
        .map(|entry| Neighbor {
            entry,
            similarity: similarity(
                euclidean(query_embedding, &entry.embedding),
                entry.at.abs_diff(query_time).as_days_f64(),
                config.alpha,
            ),
        })
        .collect();
    // total_cmp instead of partial_cmp: a NaN similarity (possible from a
    // degenerate embedding) must not panic the pipeline.
    scored.sort_by(|a, b| b.similarity.total_cmp(&a.similarity));
    let mut seen = std::collections::BTreeSet::new();
    scored
        .into_iter()
        .filter(|n| seen.insert(n.entry.category.as_str()))
        .take(config.k)
        .collect()
}

/// One scan candidate: the entry, the instant it became retrievable, and
/// its global insertion sequence (the tie-break).
type Candidate<'a> = (&'a HistoricalEntry, SimTime, u64);

/// A category representative: `(similarity, global sequence, entry)`.
type Rep<'a> = (f64, u64, &'a HistoricalEntry);

/// The ranking order: higher similarity first, earlier insertion on ties.
fn rank_order(a: &Rep<'_>, b: &Rep<'_>) -> Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
}

/// Sorts representatives into ranking order and keeps the best `k`.
fn rank(mut reps: Vec<Rep<'_>>, k: usize) -> Vec<Rep<'_>> {
    reps.sort_by(rank_order);
    reps.truncate(k);
    reps
}

/// The `k` best category similarities seen by a scan: the `k`-th of them
/// is the similarity an entry must reach to matter.
struct TopK<'a> {
    k: usize,
    /// `(similarity, category)`, best first.
    best: Vec<(f64, &'a str)>,
}

impl<'a> TopK<'a> {
    /// Records that `category`'s best similarity rose to `sim`.
    fn raise(&mut self, category: &'a str, sim: f64) {
        match self.best.iter_mut().find(|(_, c)| *c == category) {
            Some(slot) => slot.0 = sim,
            None => self.best.push((sim, category)),
        }
        self.best.sort_by(|a, b| b.0.total_cmp(&a.0));
        self.best.truncate(self.k);
    }

    /// The `k`-th best similarity, or `-∞` while fewer categories exist.
    fn kth(&self) -> f64 {
        self.best
            .get(self.k - 1)
            .map_or(f64::NEG_INFINITY, |&(sim, _)| sim)
    }
}

/// The time-outward scan over one time-ordered entry sequence split at
/// the query time: `before` yields entries at or before `query_time`,
/// newest first, and `after` yields later ones, oldest first.
///
/// Returns the per-category best entries in ranking order, cut to
/// `config.k`. `floor` is a similarity that `k` distinct categories
/// elsewhere already reach (the cross-shard merge passes its running
/// `k`-th), or `-∞`. Entries strictly below the larger of `floor` and the
/// scan's own `k`-th best are skipped, so a category whose best stays
/// below that threshold may come back with a lesser representative; it
/// ranks below the answer either way. Every category that can rank in the
/// top `k` is exact.
fn scan_outward<'a>(
    before: impl Iterator<Item = Candidate<'a>>,
    after: impl Iterator<Item = Candidate<'a>>,
    query_embedding: &[f32],
    query_time: SimTime,
    config: &RetrievalConfig,
    floor: f64,
) -> Vec<Rep<'a>> {
    debug_assert!(
        query_embedding.iter().all(|x| x.is_finite()),
        "query embedding must be finite"
    );
    if config.k == 0 {
        return Vec::new();
    }
    // A negative α makes the bound grow with the gap: scan everything.
    let stops = config.alpha >= 0.0;
    let (mut before, mut after) = (before.peekable(), after.peekable());
    let mut reps: BTreeMap<&str, Rep<'a>> = BTreeMap::new();
    let mut top = TopK {
        k: config.k,
        best: Vec::with_capacity(config.k + 1),
    };
    let mut threshold = floor;
    let gap = |c: &Candidate<'_>| c.0.at.abs_diff(query_time);
    loop {
        // Merge the two sides by time gap, so gaps never decrease.
        let take_after = match (before.peek(), after.peek()) {
            (Some(b), Some(a)) => gap(a) < gap(b),
            (None, Some(_)) => true,
            _ => false,
        };
        let next = if take_after {
            after.next()
        } else {
            before.next()
        };
        let Some((entry, visible_from, seq)) = next else {
            break;
        };
        let bound = decay(entry.at.abs_diff(query_time).as_days_f64(), config.alpha);
        // Every unvisited entry is at least this far from the query time,
        // so `bound` caps all of them. Strictly below the threshold, none
        // can enter the answer; a tie could still win on insertion order.
        if stops && bound.total_cmp(&threshold) == Ordering::Less {
            break;
        }
        if visible_from > query_time {
            continue;
        }
        // Equals `similarity(dist, Δdays, α)`, reusing the decay factor.
        let sim = (1.0 / (1.0 + euclidean(query_embedding, &entry.embedding))) * bound;
        if sim.total_cmp(&threshold) == Ordering::Less {
            continue;
        }
        let rep = (sim, seq, entry);
        match reps.entry(entry.category.as_str()) {
            Entry::Vacant(slot) => {
                slot.insert(rep);
            }
            Entry::Occupied(mut slot) => {
                if rank_order(&rep, slot.get()) != Ordering::Less {
                    continue;
                }
                slot.insert(rep);
            }
        }
        top.raise(entry.category.as_str(), sim);
        if top.kth().total_cmp(&threshold) == Ordering::Greater {
            threshold = top.kth();
        }
    }
    rank(reps.into_values().collect(), config.k)
}

fn neighbors(reps: Vec<Rep<'_>>) -> Vec<Neighbor<'_>> {
    reps.into_iter()
        .map(|(similarity, _, entry)| Neighbor { entry, similarity })
        .collect()
}

/// Read access to a historical-incident store for the retrieval stage.
///
/// The batch pipeline queries its frozen [`HistoricalIndex`]; the online
/// serving engine queries [`HistorySnapshot`]s of a growing
/// [`ShardedHistoricalIndex`]. Both run the time-outward scan, so a
/// prediction is a pure function of the visible entries.
pub trait HistoryView {
    /// Top-`k` distinct-category neighbors of `query_embedding` at
    /// `query_time` — the contract of [`linear_top_k_diverse`].
    fn top_k_diverse(
        &self,
        query_embedding: &[f32],
        query_time: SimTime,
        config: &RetrievalConfig,
    ) -> Vec<Neighbor<'_>>;

    /// Number of entries in the view (for online views: published,
    /// before any per-query visibility filtering).
    fn len(&self) -> usize;

    /// True if the view holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The frozen index of historical incidents the batch pipeline trains.
#[derive(Debug, Clone, Default)]
pub struct HistoricalIndex {
    entries: Vec<HistoricalEntry>,
    /// Positions into `entries`, sorted by `(at, position)`: the scan
    /// order.
    by_time: Vec<usize>,
}

impl HistoricalIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        HistoricalIndex::default()
    }

    /// Adds a historical incident.
    pub fn add(&mut self, entry: HistoricalEntry) {
        let pos = self
            .by_time
            .partition_point(|&i| self.entries[i].at <= entry.at);
        self.by_time.insert(pos, self.entries.len());
        self.entries.push(entry);
    }

    /// Number of indexed incidents.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries, in insertion order.
    pub fn entries(&self) -> &[HistoricalEntry] {
        &self.entries
    }

    /// Retrieves the top-`k` most similar incidents **from distinct
    /// categories**; ties rank in insertion order.
    pub fn top_k_diverse(
        &self,
        query_embedding: &[f32],
        query_time: SimTime,
        config: &RetrievalConfig,
    ) -> Vec<Neighbor<'_>> {
        let split = self
            .by_time
            .partition_point(|&i| self.entries[i].at <= query_time);
        let (before, after) = self.by_time.split_at(split);
        let candidate = |&i: &usize| (&self.entries[i], SimTime::EPOCH, i as u64);
        neighbors(scan_outward(
            before.iter().rev().map(candidate),
            after.iter().map(candidate),
            query_embedding,
            query_time,
            config,
            f64::NEG_INFINITY,
        ))
    }
}

impl HistoryView for HistoricalIndex {
    fn top_k_diverse(
        &self,
        query_embedding: &[f32],
        query_time: SimTime,
        config: &RetrievalConfig,
    ) -> Vec<Neighbor<'_>> {
        HistoricalIndex::top_k_diverse(self, query_embedding, query_time, config)
    }

    fn len(&self) -> usize {
        HistoricalIndex::len(self)
    }
}

/// One entry of the online index.
#[derive(Debug)]
struct Stored {
    entry: HistoricalEntry,
    /// When it became retrievable: the resolution time of a streamed
    /// incident, [`SimTime::EPOCH`] for warm-start history.
    visible_from: SimTime,
    /// Global insertion sequence, allocated by the router so that ties
    /// resolve the same at any shard count.
    seq: u64,
}

impl Stored {
    fn key(&self) -> (SimTime, u64) {
        (self.entry.at, self.seq)
    }

    fn candidate(&self) -> Candidate<'_> {
        (&self.entry, self.visible_from, self.seq)
    }
}

/// A shard's entries in `(at, seq)` order, as copy-on-write chunks of at
/// most `cap` entries each (never empty). Publishing clones
/// `O(n / cap)` `Arc`s, and an insert after a publish copies one chunk
/// of pointers. Online inserts arrive nearly in time order, so they
/// almost always append to the last chunk.
#[derive(Debug, Clone, Default)]
struct TimeChunks {
    chunks: Vec<Arc<Vec<Arc<Stored>>>>,
    len: usize,
}

impl TimeChunks {
    fn insert(&mut self, item: Stored, cap: usize) {
        let key = item.key();
        let item = Arc::new(item);
        self.len += 1;
        if self.chunks.is_empty() {
            self.chunks.push(Arc::new(vec![item]));
            return;
        }
        // The first chunk ending at or after the key, else the last one.
        let ci = self
            .chunks
            .partition_point(|c| c.last().is_some_and(|s| s.key() < key))
            .min(self.chunks.len() - 1);
        let pos = self.chunks[ci].partition_point(|s| s.key() < key);
        if pos == self.chunks[ci].len() && pos >= cap {
            self.chunks.insert(ci + 1, Arc::new(vec![item]));
            return;
        }
        let chunk = Arc::make_mut(&mut self.chunks[ci]);
        chunk.insert(pos, item);
        if chunk.len() > cap {
            let upper = chunk.split_off(chunk.len() / 2);
            self.chunks.insert(ci + 1, Arc::new(upper));
        }
    }

    fn iter(&self) -> impl Iterator<Item = &Stored> {
        self.chunks.iter().flat_map(|c| c.iter().map(|s| &**s))
    }

    /// Per-category representatives for a query (see [`scan_outward`]).
    fn scan(
        &self,
        query_embedding: &[f32],
        query_time: SimTime,
        config: &RetrievalConfig,
        floor: f64,
    ) -> Vec<Rep<'_>> {
        // Chunk `ci` holds the first entry later than the query time.
        let ci = self
            .chunks
            .partition_point(|c| c.last().is_some_and(|s| s.entry.at <= query_time));
        let (older, rest) = self.chunks.split_at(ci);
        let (mid_before, mid_after): (&[Arc<Stored>], &[Arc<Stored>]) =
            rest.first().map_or((&[], &[]), |c| {
                c.split_at(c.partition_point(|s| s.entry.at <= query_time))
            });
        let before = mid_before
            .iter()
            .rev()
            .chain(older.iter().rev().flat_map(|c| c.iter().rev()));
        let after = mid_after
            .iter()
            .chain(rest.iter().skip(1).flat_map(|c| c.iter()));
        scan_outward(
            before.map(|s| s.candidate()),
            after.map(|s| s.candidate()),
            query_embedding,
            query_time,
            config,
            floor,
        )
    }
}

/// One shard: the working entries, the last published epoch of them,
/// and its epoch number.
#[derive(Debug, Default)]
struct Shard {
    working: TimeChunks,
    published: TimeChunks,
    epoch: u64,
}

/// The online historical index: it grows as incidents resolve, and
/// readers query epoch snapshots of it.
///
/// The batch pipeline builds its index once; an on-call deployment
/// cannot, because the paper's recurrence structure (93.8% of
/// recurrences within 20 days, Figure 2) means the most valuable
/// retrieval candidate for an incoming incident is usually one resolved
/// *hours* ago. This index accepts [`insert`]s as incidents resolve and
/// [`publish`]es epochs; concurrent readers take [`snapshot`]s and query
/// them lock-free. A frozen index is one that is never inserted into
/// after warm start; an unsharded one has one shard.
///
/// Entries split into `N` independently locked shards, routed by
/// [`shard_for_category`], so every entry of a category lives in exactly
/// one shard. Query answers — and therefore the serving engine's
/// prediction log — are **byte-identical** for any shard count:
///
/// 1. **Global sequence numbers.** The router allocates one increasing
///    `seq` per insert, and ties resolve on it exactly as one index's
///    insertion order would.
/// 2. **Exact per-shard scans.** Each shard answers with the
///    time-outward scan's per-category representatives.
/// 3. **Floored merge.** Categories partition across shards, so the
///    merge only ranks whole categories; the running `k`-th similarity
///    is handed to the next shard's scan as a floor, which stops it
///    earlier without changing the answer.
///
/// All methods take `&self`: shard locks are internal, and a lock
/// poisoned by a dying worker thread is recovered (and counted) rather
/// than propagated, matching the serving plane's supervision policy.
///
/// [`insert`]: ShardedHistoricalIndex::insert
/// [`publish`]: ShardedHistoricalIndex::publish
/// [`snapshot`]: ShardedHistoricalIndex::snapshot
#[derive(Debug)]
pub struct ShardedHistoricalIndex {
    shards: Vec<Mutex<Shard>>,
    /// Entries per time-ordered chunk.
    max_cell: usize,
    next_seq: AtomicU64,
    poison_recoveries: AtomicU64,
    /// The warm-start history, which holds sequence numbers `0..len` and
    /// which checkpoints name instead of copying.
    base: WarmBase,
}

impl ShardedHistoricalIndex {
    /// An index over the warm-start history `base` (inserted in slice
    /// order, always visible, not yet published) with `shards` shards
    /// (clamped to ≥ 1) whose time-ordered chunks hold up to `max_cell`
    /// entries (clamped to ≥ 1). The chunk size trades publish cost
    /// against insert cost; it never changes an answer.
    fn new(base: &[HistoricalEntry], shards: usize, max_cell: usize) -> Self {
        let idx = ShardedHistoricalIndex {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            max_cell: max_cell.max(1),
            next_seq: AtomicU64::new(0),
            poison_recoveries: AtomicU64::new(0),
            base: WarmBase::of(base),
        };
        for e in base {
            idx.insert(e.clone(), SimTime::EPOCH);
        }
        idx
    }

    /// Warm-starts from existing history (e.g. a trained pipeline's
    /// index) in slice order and publishes every shard. Every seeded
    /// entry is visible to all queries. The index remembers the history
    /// as its [`WarmBase`], so its checkpoints name it instead of
    /// copying it.
    pub fn warm(entries: &[HistoricalEntry], shards: usize, max_cell: usize) -> Self {
        let idx = ShardedHistoricalIndex::new(entries, shards, max_cell);
        idx.publish_all();
        idx
    }

    /// [`warm`](Self::warm) with the retrieval backend named explicitly.
    pub fn warm_with(
        entries: &[HistoricalEntry],
        shards: usize,
        max_cell: usize,
        backend: RetrievalBackend,
    ) -> Self {
        match backend {
            RetrievalBackend::Exact => Self::warm(entries, shards, max_cell),
        }
    }

    fn lock_shard(&self, shard: usize) -> MutexGuard<'_, Shard> {
        self.shards[shard].lock().unwrap_or_else(|poisoned| {
            self.poison_recoveries.fetch_add(1, AtomicOrdering::Relaxed);
            poisoned.into_inner()
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard `category` routes to.
    pub fn route(&self, category: &str) -> usize {
        shard_for_category(category, self.shards.len())
    }

    /// Appends a resolved incident to its category's shard, allocating
    /// the next global sequence number. It reaches readers at that
    /// shard's next [`publish`](Self::publish), and from then on only
    /// queries at or after `visible_from` (its resolution instant; pass
    /// [`SimTime::EPOCH`] for always-visible history). Returns the shard
    /// it landed in.
    pub fn insert(&self, entry: HistoricalEntry, visible_from: SimTime) -> usize {
        let seq = self.next_seq.fetch_add(1, AtomicOrdering::Relaxed);
        let shard = self.route(&entry.category);
        self.lock_shard(shard).working.insert(
            Stored {
                entry,
                visible_from,
                seq,
            },
            self.max_cell,
        );
        shard
    }

    /// Publishes one shard's pending inserts as a new epoch and returns
    /// the shard's epoch number.
    pub fn publish(&self, shard: usize) -> u64 {
        let mut guard = self.lock_shard(shard);
        guard.published = guard.working.clone();
        guard.epoch += 1;
        guard.epoch
    }

    /// Publishes every shard (warm start / checkpoint restore).
    pub fn publish_all(&self) {
        for s in 0..self.shards.len() {
            self.publish(s);
        }
    }

    /// One shard's published epoch number (0 = nothing published).
    pub fn epoch(&self, shard: usize) -> u64 {
        self.lock_shard(shard).epoch
    }

    /// Overrides one shard's epoch counter (journal continuity on
    /// recovery).
    pub fn set_epoch(&self, shard: usize, epoch: u64) {
        self.lock_shard(shard).epoch = epoch;
    }

    /// Entries inserted so far across all shards (published or not).
    pub fn len(&self) -> usize {
        (0..self.shards.len())
            .map(|s| self.lock_shard(s).working.len)
            .sum()
    }

    /// True if nothing was inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Poisoned shard locks recovered so far (folded into the engine's
    /// fault counters).
    pub fn poison_recoveries(&self) -> u64 {
        self.poison_recoveries.load(AtomicOrdering::Relaxed)
    }

    /// An immutable view of each shard's latest published epoch. Costs
    /// `O(n / max_cell)` `Arc` clones; safe to hand to another thread.
    /// Shards are snapshotted one at a time — the serving engine commits
    /// inserts under its own in-order watermark, so per-query
    /// `visible_from` filtering (not snapshot atomicity) is what defines
    /// the visible set.
    pub fn snapshot(&self) -> HistorySnapshot {
        HistorySnapshot {
            shards: (0..self.shards.len())
                .map(|s| self.lock_shard(s).published.clone())
                .collect(),
        }
    }

    /// Serializes all shards as one flat entry list in global insertion
    /// order, for the serving plane's write-ahead checkpoint. Storing the
    /// *merged* order (rather than per-shard lists) makes the checkpoint
    /// shard-count independent: restoring with a different `shards`
    /// value re-routes deterministically and reproduces identical
    /// answers. The checkpoint lists only the entries inserted after the
    /// index's [`WarmBase`] and names the base.
    pub fn checkpoint(&self) -> ShardedCheckpoint {
        let after_base = self.base.len as u64;
        let mut seqd: Vec<(u64, CheckpointEntry)> = Vec::new();
        let mut shard_epochs = Vec::with_capacity(self.shards.len());
        for s in 0..self.shards.len() {
            let guard = self.lock_shard(s);
            seqd.extend(
                guard
                    .working
                    .iter()
                    .filter(|stored| stored.seq >= after_base)
                    .map(|stored| {
                        (
                            stored.seq,
                            CheckpointEntry {
                                entry: stored.entry.clone(),
                                visible_from: stored.visible_from,
                            },
                        )
                    }),
            );
            shard_epochs.push(guard.epoch);
        }
        seqd.sort_by_key(|&(seq, _)| seq);
        ShardedCheckpoint {
            max_cell: self.max_cell,
            shard_epochs,
            entries: seqd.into_iter().map(|(_, e)| e).collect(),
            base: self.base,
        }
    }

    /// Rebuilds an index from a checkpoint with `shards` shards (not
    /// necessarily the checkpoint's count): entries are re-inserted in
    /// global order — the deterministic router reassigns shards and
    /// sequence numbers — and every shard is published once. Per-shard
    /// epoch counters are restored positionally where the shard exists;
    /// epoch numbering is journal bookkeeping and never affects query
    /// answers, because visibility is filtered per query by
    /// `visible_from`, not by epoch membership.
    ///
    /// The checkpoint is restored over `base`, the history it was warmed
    /// from, once `base` digests to the [`WarmBase`] it names: those
    /// entries go in first, so every entry gets back its sequence
    /// number, and the restored index keeps naming the base.
    ///
    /// # Errors
    ///
    /// [`BaseMismatch`] when `base` is not the history the checkpoint
    /// names; nothing is inserted then.
    pub fn restore(
        checkpoint: &ShardedCheckpoint,
        base: &[HistoricalEntry],
        shards: usize,
    ) -> Result<Self, BaseMismatch> {
        let found = WarmBase::of(base);
        if found != checkpoint.base {
            return Err(BaseMismatch {
                named: checkpoint.base,
                found,
            });
        }
        let idx = ShardedHistoricalIndex::new(base, shards, checkpoint.max_cell);
        for ce in &checkpoint.entries {
            idx.insert(ce.entry.clone(), ce.visible_from);
        }
        idx.publish_all();
        for (s, &epoch) in checkpoint.shard_epochs.iter().enumerate() {
            if s < idx.shard_count() && epoch > idx.epoch(s) {
                idx.set_epoch(s, epoch);
            }
        }
        Ok(idx)
    }
}

/// The warm-start history of a [`ShardedHistoricalIndex`], named by its
/// length and a digest of its entries, so a checkpoint can refer to it
/// instead of copying it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarmBase {
    /// Number of warm entries; they hold sequence numbers `0..len`.
    pub len: usize,
    /// 64-bit FNV-1a over every entry's id, category, summary, time and
    /// embedding bits, little-endian, with each string's and the
    /// embedding's length before it.
    pub digest: u64,
}

impl WarmBase {
    /// Names `entries` as a warm base.
    pub fn of(entries: &[HistoricalEntry]) -> Self {
        let mut h = Fnv1a::new();
        for e in entries {
            h.write(&(e.id as u64).to_le_bytes());
            for text in [&e.category, &e.summary] {
                h.write(&(text.len() as u64).to_le_bytes());
                h.write(text.as_bytes());
            }
            h.write(&e.at.as_secs().to_le_bytes());
            h.write(&(e.embedding.len() as u64).to_le_bytes());
            for x in &e.embedding {
                h.write(&x.to_bits().to_le_bytes());
            }
        }
        WarmBase {
            len: entries.len(),
            digest: h.finish(),
        }
    }
}

/// A checkpoint named a warm base that the history offered to restore it
/// does not match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaseMismatch {
    /// The base the checkpoint names.
    pub named: WarmBase,
    /// The base the offered history digests to.
    pub found: WarmBase,
}

impl std::fmt::Display for BaseMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "checkpoint names a warm base of {} entries (digest {:016x}), \
             but the offered history has {} entries (digest {:016x})",
            self.named.len, self.named.digest, self.found.len, self.found.digest
        )
    }
}

impl std::error::Error for BaseMismatch {}

/// One [`ShardedHistoricalIndex`] entry as journaled by the serving
/// plane's write-ahead log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointEntry {
    /// The stored historical entry.
    pub entry: HistoricalEntry,
    /// The virtual instant it became retrievable.
    pub visible_from: SimTime,
}

/// A serializable snapshot of a [`ShardedHistoricalIndex`]'s full state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardedCheckpoint {
    /// Entries per time-ordered chunk to rebuild with.
    pub max_cell: usize,
    /// Per-shard published epoch numbers at checkpoint time (length =
    /// the checkpointing index's shard count).
    pub shard_epochs: Vec<u64>,
    /// Every entry inserted after the warm base, in *global* insertion
    /// order.
    pub entries: Vec<CheckpointEntry>,
    /// The warm-start history the entries follow, named rather than
    /// copied.
    pub base: WarmBase,
}

/// A sealed read view of every shard of a [`ShardedHistoricalIndex`].
#[derive(Debug, Clone)]
pub struct HistorySnapshot {
    shards: Vec<TimeChunks>,
}

impl HistoryView for HistorySnapshot {
    /// The shards' scans, merged: each shard's representatives join the
    /// running top `k`, whose `k`-th similarity floors the next shard's
    /// scan.
    fn top_k_diverse(
        &self,
        query_embedding: &[f32],
        query_time: SimTime,
        config: &RetrievalConfig,
    ) -> Vec<Neighbor<'_>> {
        let mut reps: Vec<Rep<'_>> = Vec::new();
        for shard in &self.shards {
            let floor = match config.k.checked_sub(1).and_then(|i| reps.get(i)) {
                Some(&(kth, _, _)) => kth,
                None => f64::NEG_INFINITY,
            };
            reps.extend(shard.scan(query_embedding, query_time, config, floor));
            reps = rank(reps, config.k);
        }
        neighbors(reps)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: usize, cat: &str, day: u64, emb: Vec<f32>) -> HistoricalEntry {
        HistoricalEntry {
            id,
            category: cat.to_string(),
            summary: format!("summary {id}"),
            at: SimTime::from_days(day),
            embedding: emb,
        }
    }

    #[test]
    fn similarity_formula_matches_paper() {
        // Zero distance, zero time gap: similarity 1.
        assert!((similarity(0.0, 0.0, 0.3) - 1.0).abs() < 1e-12);
        // Distance 1 halves the spatial part.
        assert!((similarity(1.0, 0.0, 0.3) - 0.5).abs() < 1e-12);
        // Ten days at alpha 0.3 decays by e^-3.
        let s = similarity(0.0, 10.0, 0.3);
        assert!((s - (-3.0f64).exp()).abs() < 1e-12);
        // Alpha 0 ignores time.
        assert_eq!(similarity(2.0, 100.0, 0.0), 1.0 / 3.0);
    }

    #[test]
    fn temporal_decay_prefers_recent_incidents() {
        let mut idx = HistoricalIndex::new();
        // Same embedding, different times; category must differ to coexist.
        idx.add(entry(0, "Old", 10, vec![0.0, 0.0]));
        idx.add(entry(1, "New", 99, vec![0.0, 0.0]));
        let cfg = RetrievalConfig { k: 2, alpha: 0.3 };
        let hits = idx.top_k_diverse(&[0.0, 0.0], SimTime::from_days(100), &cfg);
        assert_eq!(hits[0].entry.category, "New");
        assert!(hits[0].similarity > hits[1].similarity);
        // With alpha = 0 the tie is broken by insertion order, not time.
        let cfg0 = RetrievalConfig { k: 2, alpha: 0.0 };
        let hits0 = idx.top_k_diverse(&[0.0, 0.0], SimTime::from_days(100), &cfg0);
        assert_eq!(hits0[0].similarity, hits0[1].similarity);
        assert_eq!(hits0[0].entry.category, "Old");
    }

    #[test]
    fn diversity_takes_one_per_category() {
        let mut idx = HistoricalIndex::new();
        idx.add(entry(0, "A", 50, vec![0.0]));
        idx.add(entry(1, "A", 50, vec![0.1]));
        idx.add(entry(2, "B", 50, vec![5.0]));
        idx.add(entry(3, "C", 50, vec![9.0]));
        let cfg = RetrievalConfig { k: 3, alpha: 0.0 };
        let hits = idx.top_k_diverse(&[0.0], SimTime::from_days(50), &cfg);
        let cats: Vec<&str> = hits.iter().map(|n| n.entry.category.as_str()).collect();
        assert_eq!(cats, vec!["A", "B", "C"]);
        // The closer "A" entry represents its category.
        assert_eq!(hits[0].entry.id, 0);
    }

    #[test]
    fn k_larger_than_categories_returns_all_categories() {
        let mut idx = HistoricalIndex::new();
        idx.add(entry(0, "A", 1, vec![0.0]));
        idx.add(entry(1, "B", 1, vec![1.0]));
        let cfg = RetrievalConfig { k: 10, alpha: 0.3 };
        let hits = idx.top_k_diverse(&[0.0], SimTime::from_days(1), &cfg);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn empty_index_and_zero_k_return_nothing() {
        let idx = HistoricalIndex::new();
        let hits = idx.top_k_diverse(&[0.0], SimTime::EPOCH, &RetrievalConfig::default());
        assert!(hits.is_empty());
        assert!(idx.is_empty());
        let online = ShardedHistoricalIndex::warm(&[entry(0, "A", 1, vec![0.0])], 2, 4);
        let cfg = RetrievalConfig { k: 0, alpha: 0.3 };
        assert!(
            HistoryView::top_k_diverse(&online.snapshot(), &[0.0], SimTime::EPOCH, &cfg).is_empty()
        );
    }

    #[test]
    fn scan_stops_at_the_decay_bound_but_keeps_ties() {
        // Query on day 100. "Near" sits on the query (similarity 1); every
        // other category is 30+ days away with bound e^-9 < 1, so k = 1
        // stops at the first far entry. The far entries still matter for
        // k = 3, and with alpha = 0 the bound never prunes.
        let mut idx = HistoricalIndex::new();
        idx.add(entry(0, "Far1", 10, vec![0.0]));
        idx.add(entry(1, "Near", 100, vec![0.0]));
        idx.add(entry(2, "Far2", 170, vec![0.0]));
        idx.add(entry(3, "Far3", 130, vec![0.0]));
        for k in 1..=4 {
            for alpha in [0.0, 0.3, 5.0] {
                let cfg = RetrievalConfig { k, alpha };
                let at = SimTime::from_days(100);
                assert_eq!(
                    idx.top_k_diverse(&[0.0], at, &cfg),
                    linear_top_k_diverse(idx.entries(), &[0.0], at, &cfg),
                    "k {k} alpha {alpha}"
                );
            }
        }
        let cfg = RetrievalConfig { k: 3, alpha: 0.3 };
        let cats: Vec<String> = idx
            .top_k_diverse(&[0.0], SimTime::from_days(100), &cfg)
            .into_iter()
            .map(|n| n.entry.category.clone())
            .collect();
        assert_eq!(cats, ["Near", "Far3", "Far2"]);
    }

    #[test]
    fn online_snapshot_matches_linear_index() {
        let mut linear = HistoricalIndex::new();
        for i in 0..40usize {
            linear.add(entry(
                i,
                &format!("Cat{}", i % 9),
                (i as u64 * 7) % 300,
                vec![(i % 5) as f32, (i % 3) as f32 * 2.0],
            ));
        }
        let online = ShardedHistoricalIndex::warm(linear.entries(), 1, 4);
        let snap = online.snapshot();
        assert_eq!(HistoryView::len(&snap), linear.len());
        let cfg = RetrievalConfig { k: 5, alpha: 0.3 };
        for q in [[0.0f32, 0.0], [3.5, 1.0], [4.0, 6.0]] {
            for day in [0u64, 50, 180, 360] {
                let at = SimTime::from_days(day);
                let a = linear.top_k_diverse(&q, at, &cfg);
                let b = HistoryView::top_k_diverse(&snap, &q, at, &cfg);
                assert_eq!(a, linear_top_k_diverse(linear.entries(), &q, at, &cfg));
                assert_eq!(a, b, "query {q:?} at day {day}");
            }
        }
    }

    #[test]
    fn out_of_order_inserts_split_chunks_and_stay_sorted() {
        let idx = ShardedHistoricalIndex::new(&[], 1, 2);
        let days = [50u64, 10, 30, 30, 90, 0, 70, 20, 60, 40];
        for (i, &day) in days.iter().enumerate() {
            idx.insert(entry(i, &format!("Cat{i}"), day, vec![0.0]), SimTime::EPOCH);
        }
        let guard = idx.lock_shard(0);
        let keys: Vec<(SimTime, u64)> = guard.working.iter().map(Stored::key).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
        assert!(guard
            .working
            .chunks
            .iter()
            .all(|c| (1..=2).contains(&c.len())));
        assert_eq!(guard.working.len, days.len());
    }

    #[test]
    fn checkpoint_restore_round_trips_queries_and_epoch() {
        let online = ShardedHistoricalIndex::new(&[], 1, 4);
        for i in 0..25usize {
            online.insert(
                entry(
                    i,
                    &format!("Cat{}", i % 6),
                    (i as u64 * 11) % 200,
                    vec![(i % 4) as f32, (i % 7) as f32],
                ),
                SimTime::from_days((i as u64 * 3) % 100),
            );
            if i % 5 == 4 {
                online.publish(0);
            }
        }
        let ckpt = online.checkpoint();
        assert_eq!(ckpt.entries.len(), online.len());
        let restored = ShardedHistoricalIndex::restore(&ckpt, &[], 1).expect("same empty base");
        assert_eq!(restored.len(), online.len());
        assert_eq!(restored.epoch(0), online.epoch(0));
        let cfg = RetrievalConfig { k: 4, alpha: 0.3 };
        let (a, b) = (online.snapshot(), restored.snapshot());
        for day in [0u64, 40, 90, 300] {
            let at = SimTime::from_days(day);
            assert_eq!(
                HistoryView::top_k_diverse(&a, &[1.0, 2.0], at, &cfg),
                HistoryView::top_k_diverse(&b, &[1.0, 2.0], at, &cfg),
                "restored index must answer identically at day {day}"
            );
        }
    }

    #[test]
    fn online_insert_respects_visibility_and_epochs() {
        let online = ShardedHistoricalIndex::new(&[], 1, 8);
        online.insert(entry(0, "A", 10, vec![0.0]), SimTime::EPOCH);
        // Not yet published: snapshots are empty.
        assert!(online.snapshot().is_empty());
        assert_eq!(online.publish(0), 1);
        let first_epoch = online.snapshot();
        // Resolved on day 50: invisible to queries before that.
        online.insert(entry(1, "B", 50, vec![0.0]), SimTime::from_days(50));
        assert_eq!(online.publish(0), 2);
        assert_eq!(first_epoch.len(), 1, "sealed epoch must not move");
        let snap = online.snapshot();
        assert_eq!(snap.len(), 2);
        let cfg = RetrievalConfig { k: 2, alpha: 0.0 };
        let early = HistoryView::top_k_diverse(&snap, &[0.0], SimTime::from_days(20), &cfg);
        assert_eq!(early.len(), 1);
        assert_eq!(early[0].entry.category, "A");
        let late = HistoryView::top_k_diverse(&snap, &[0.0], SimTime::from_days(60), &cfg);
        assert_eq!(late.len(), 2);
    }

    #[test]
    fn shard_router_is_stable_and_category_local() {
        // Same category always lands in the same shard.
        for cat in ["NetworkLatency", "DiskFailure", "AuthOutage", ""] {
            for shards in [1usize, 2, 3, 8] {
                let s = shard_for_category(cat, shards);
                assert!(s < shards);
                assert_eq!(s, shard_for_category(cat, shards), "stable");
            }
            assert_eq!(shard_for_category(cat, 1), 0);
            assert_eq!(shard_for_category(cat, 0), 0, "zero clamps to one shard");
        }
        // FNV-1a reference value ("a" hashes to the known constant).
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn sharded_index_matches_unsharded_queries_and_routing() {
        let single = ShardedHistoricalIndex::new(&[], 1, 4);
        let sharded = ShardedHistoricalIndex::new(&[], 3, 4);
        for i in 0..40usize {
            let e = entry(
                i,
                &format!("Cat{}", i % 7),
                (i as u64 * 13) % 300,
                vec![(i % 5) as f32, (i % 3) as f32],
            );
            let vis = SimTime::from_days((i as u64 * 5) % 150);
            single.insert(e.clone(), vis);
            let s = sharded.insert(e.clone(), vis);
            assert_eq!(
                s,
                sharded.route(&e.category),
                "insert reports the routed shard"
            );
        }
        single.publish_all();
        sharded.publish_all();
        assert_eq!(sharded.len(), single.len());
        assert_eq!(sharded.shard_count(), 3);
        assert_eq!(sharded.poison_recoveries(), 0);
        let (a, b) = (single.snapshot(), sharded.snapshot());
        let cfg = RetrievalConfig { k: 5, alpha: 0.3 };
        for day in [0u64, 60, 200, 400] {
            let at = SimTime::from_days(day);
            for q in [[0.0f32, 0.0], [3.0, 1.0], [4.5, 2.0]] {
                assert_eq!(
                    HistoryView::top_k_diverse(&a, &q, at, &cfg),
                    HistoryView::top_k_diverse(&b, &q, at, &cfg),
                    "query {q:?} at day {day}"
                );
            }
        }
    }

    #[test]
    fn sharded_checkpoint_restores_across_shard_counts() {
        let sharded = ShardedHistoricalIndex::new(&[], 4, 3);
        for i in 0..30usize {
            sharded.insert(
                entry(
                    i,
                    &format!("Cat{}", i % 5),
                    (i as u64 * 9) % 250,
                    vec![(i % 6) as f32],
                ),
                SimTime::from_days((i as u64 * 2) % 80),
            );
            if i % 6 == 5 {
                sharded.publish_all();
            }
        }
        sharded.publish_all();
        let ckpt = sharded.checkpoint();
        assert_eq!(ckpt.entries.len(), sharded.len());
        assert_eq!(ckpt.shard_epochs.len(), 4);
        // Entries come out in global insertion order.
        for (i, ce) in ckpt.entries.iter().enumerate() {
            assert_eq!(ce.entry.id, i);
        }
        // The checkpoint survives a serde round trip (WAL requirement).
        let json = serde_json::to_string(&ckpt).expect("serializable");
        let back: ShardedCheckpoint = serde_json::from_str(&json).expect("parseable");
        assert_eq!(back, ckpt);
        let cfg = RetrievalConfig { k: 4, alpha: 0.3 };
        let reference = sharded.snapshot();
        // Restore into the same, fewer and more shards: answers identical.
        for target in [1usize, 2, 4, 8] {
            let restored =
                ShardedHistoricalIndex::restore(&ckpt, &[], target).expect("same empty base");
            assert_eq!(restored.shard_count(), target);
            assert_eq!(restored.len(), sharded.len());
            let snap = restored.snapshot();
            for day in [0u64, 40, 120, 300] {
                let at = SimTime::from_days(day);
                assert_eq!(
                    HistoryView::top_k_diverse(&reference, &[1.0], at, &cfg),
                    HistoryView::top_k_diverse(&snap, &[1.0], at, &cfg),
                    "restored into {target} shards must answer identically at day {day}"
                );
            }
        }
        // Same-count restore also restores per-shard epoch counters.
        let same = ShardedHistoricalIndex::restore(&ckpt, &[], 4).expect("same empty base");
        for s in 0..4 {
            assert_eq!(same.epoch(s), sharded.epoch(s), "shard {s} epoch");
        }
    }

    #[test]
    fn sharded_insert_keeps_global_sequence_for_tie_breaks() {
        // Identical embeddings and timestamps across categories: ranking
        // is decided purely by insertion order, which must survive
        // sharding even though the entries land in different shards.
        let single = ShardedHistoricalIndex::new(&[], 1, 2);
        let sharded = ShardedHistoricalIndex::new(&[], 8, 2);
        for i in 0..12usize {
            let e = entry(100 - i, &format!("Cat{i}"), 10, vec![1.0, 1.0]);
            single.insert(e.clone(), SimTime::EPOCH);
            sharded.insert(e, SimTime::EPOCH);
        }
        single.publish_all();
        sharded.publish_all();
        let cfg = RetrievalConfig { k: 6, alpha: 0.0 };
        let at = SimTime::from_days(10);
        let (snap_a, snap_b) = (single.snapshot(), sharded.snapshot());
        let a = HistoryView::top_k_diverse(&snap_a, &[1.0, 1.0], at, &cfg);
        let b = HistoryView::top_k_diverse(&snap_b, &[1.0, 1.0], at, &cfg);
        assert_eq!(a, b);
        // All six similarities tie; order must be insertion order.
        let ids: Vec<usize> = b.iter().map(|n| n.entry.id).collect();
        assert_eq!(ids, vec![100, 99, 98, 97, 96, 95]);
    }

    /// Warm history in categories `Warm*` and later inserts in `Late*`,
    /// all on one day with one embedding: every similarity ties, so the
    /// answer is insertion order and shows where restore put the base.
    fn tied_warm_and_late() -> (Vec<HistoricalEntry>, ShardedHistoricalIndex) {
        let warm: Vec<HistoricalEntry> = (0..4)
            .map(|i| entry(i, &format!("Warm{i}"), 10, vec![1.0, 1.0]))
            .collect();
        let online = ShardedHistoricalIndex::warm(&warm, 3, 2);
        for i in 0..4 {
            let s = online.insert(
                entry(10 + i, &format!("Late{i}"), 10, vec![1.0, 1.0]),
                SimTime::from_days(i as u64),
            );
            online.publish(s);
        }
        (warm, online)
    }

    fn tied_answer(view: &dyn HistoryView) -> Vec<usize> {
        let cfg = RetrievalConfig { k: 6, alpha: 0.0 };
        view.top_k_diverse(&[1.0, 1.0], SimTime::from_days(10), &cfg)
            .iter()
            .map(|n| n.entry.id)
            .collect()
    }

    #[test]
    fn checkpoints_name_the_warm_base_and_restore_over_it() {
        let (warm, online) = tied_warm_and_late();
        let ckpt = online.checkpoint();
        assert_eq!(ckpt.base, WarmBase::of(&warm));
        let ids: Vec<usize> = ckpt.entries.iter().map(|ce| ce.entry.id).collect();
        assert_eq!(ids, [10, 11, 12, 13], "only the entries after the base");
        let json = serde_json::to_string(&ckpt).expect("serializable");
        let back: ShardedCheckpoint = serde_json::from_str(&json).expect("parseable");
        assert_eq!(back, ckpt);
        let want = tied_answer(&online.snapshot());
        assert_eq!(
            want,
            [0, 1, 2, 3, 10, 11],
            "ties resolve in insertion order"
        );
        for shards in [1usize, 2, 3, 5] {
            let restored =
                ShardedHistoricalIndex::restore(&back, &warm, shards).expect("same base");
            assert_eq!(restored.len(), online.len());
            assert_eq!(tied_answer(&restored.snapshot()), want, "{shards} shards");
            // Fold again after more inserts: still only the later entries.
            restored.insert(entry(20, "Later", 10, vec![1.0, 1.0]), SimTime::EPOCH);
            let again = restored.checkpoint();
            assert_eq!(again.base, ckpt.base);
            let ids: Vec<usize> = again.entries.iter().map(|ce| ce.entry.id).collect();
            assert_eq!(ids, [10, 11, 12, 13, 20]);
        }
    }

    #[test]
    fn restore_refuses_a_different_warm_base() {
        let (warm, online) = tied_warm_and_late();
        let ckpt = online.checkpoint();
        let named = WarmBase::of(&warm);
        let mut edited = warm.clone();
        edited[2].summary.push('!');
        let mut nudged = warm.clone();
        nudged[0].embedding[1] = f32::from_bits(nudged[0].embedding[1].to_bits() + 1);
        for other in [&warm[..3], &edited[..], &nudged[..], &[]] {
            let err = ShardedHistoricalIndex::restore(&ckpt, other, 1).expect_err("other base");
            assert_eq!(
                err,
                BaseMismatch {
                    named,
                    found: WarmBase::of(other),
                }
            );
            assert!(err.to_string().contains("warm base of 4 entries"), "{err}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rcacopilot_telemetry::time::SimDuration;

    /// Entries from `(day, category, x, y)` specs on a small integer
    /// grid: plenty of exact distance and time ties.
    fn grid_entry(i: usize, day: u64, cat: usize, x: i32, y: i32) -> HistoricalEntry {
        HistoricalEntry {
            id: i,
            category: format!("Cat{cat}"),
            summary: String::new(),
            at: SimTime::from_days(day),
            embedding: vec![x as f32, y as f32],
        }
    }

    proptest! {
        #[test]
        fn similarity_is_bounded_and_monotone(
            d1 in 0.0f64..50.0, d2 in 0.0f64..50.0,
            t1 in 0.0f64..365.0, t2 in 0.0f64..365.0,
            alpha in 0.0f64..2.0
        ) {
            let s = similarity(d1, t1, alpha);
            prop_assert!((0.0..=1.0).contains(&s));
            // Monotone decreasing in distance at fixed time.
            if d1 <= d2 {
                prop_assert!(similarity(d1, t1, alpha) + 1e-12 >= similarity(d2, t1, alpha));
            }
            // Monotone decreasing in |Δt| at fixed distance.
            if t1 <= t2 {
                prop_assert!(similarity(d1, t1, alpha) + 1e-12 >= similarity(d1, t2, alpha));
            }
        }

        #[test]
        fn top_k_diverse_is_sorted_and_distinct(
            k in 1usize..8,
            days in proptest::collection::vec(0u64..364, 1..30)
        ) {
            let mut idx = HistoricalIndex::new();
            for (i, &d) in days.iter().enumerate() {
                idx.add(HistoricalEntry {
                    id: i,
                    category: format!("Cat{}", i % 7),
                    summary: String::new(),
                    at: SimTime::from_days(d),
                    embedding: vec![(i % 5) as f32, (i % 3) as f32],
                });
            }
            let hits = idx.top_k_diverse(&[0.0, 0.0], SimTime::from_days(180), &RetrievalConfig { k, alpha: 0.3 });
            prop_assert!(hits.len() <= k);
            for w in hits.windows(2) {
                prop_assert!(w[0].similarity + 1e-12 >= w[1].similarity);
            }
            let mut cats: Vec<&str> = hits.iter().map(|n| n.entry.category.as_str()).collect();
            cats.sort_unstable();
            let before = cats.len();
            cats.dedup();
            prop_assert_eq!(cats.len(), before, "duplicate categories in demos");
        }

        /// The time-outward scan of the frozen index returns *exactly*
        /// the linear reference's answer — same entries, same order, same
        /// similarity bits — for arbitrary entry clouds in arbitrary time
        /// order, duplicate embeddings and times (tie-break stress), decay
        /// rates and query times, including queries before, inside and
        /// after the history.
        #[test]
        fn frozen_scan_equals_linear_reference(
            k in 0usize..8,
            alpha in proptest::sample::select(vec![0.0f64, 0.02, 0.3, 1.7, 40.0]),
            query_day in 0u64..420,
            specs in proptest::collection::vec(
                (0u64..364, 0usize..6, 0i32..4, 0i32..4), 0..50)
        ) {
            let mut idx = HistoricalIndex::new();
            for (i, &(day, cat, x, y)) in specs.iter().enumerate() {
                idx.add(grid_entry(i, day, cat, x, y));
            }
            let cfg = RetrievalConfig { k, alpha };
            let at = SimTime::from_days(query_day);
            for q in [[0.0f32, 0.0], [1.5, 2.5], [3.0, 0.0]] {
                prop_assert_eq!(
                    idx.top_k_diverse(&q, at, &cfg),
                    linear_top_k_diverse(idx.entries(), &q, at, &cfg)
                );
            }
        }

        /// The online index, at any shard count and chunk size, returns
        /// exactly the linear reference's answer over the entries visible
        /// at the query time, in insertion order — whatever the publish
        /// cadence, visibility horizons, decay rate and query time. This
        /// pins the chunked time order, the visibility filter, the
        /// floored cross-shard merge and the global-sequence tie-break.
        #[test]
        fn online_scan_equals_linear_reference_over_visible_entries(
            k in 1usize..8,
            alpha in 0.0f64..2.0,
            max_cell in 1usize..8,
            shards in 1usize..9,
            publish_every in 1usize..5,
            query_day in 0u64..364,
            specs in proptest::collection::vec(
                (0u64..364, 0usize..6, 0i32..4, 0i32..4, 0u64..200), 1..50)
        ) {
            let idx = ShardedHistoricalIndex::new(&[], shards, max_cell);
            for (i, &(day, cat, x, y, vis)) in specs.iter().enumerate() {
                let s = idx.insert(grid_entry(i, day, cat, x, y), SimTime::from_days(vis));
                if (i + 1) % publish_every == 0 {
                    idx.publish(s);
                }
            }
            idx.publish_all();
            prop_assert_eq!(idx.len(), specs.len());
            let at = SimTime::from_days(query_day);
            let visible: Vec<HistoricalEntry> = specs
                .iter()
                .enumerate()
                .filter(|(_, s)| SimTime::from_days(s.4) <= at)
                .map(|(i, &(day, cat, x, y, _))| grid_entry(i, day, cat, x, y))
                .collect();
            let cfg = RetrievalConfig { k, alpha };
            let snap = idx.snapshot();
            for q in [[0.0f32, 0.0], [1.5, 2.5], [3.0, 0.0]] {
                prop_assert_eq!(
                    HistoryView::top_k_diverse(&snap, &q, at, &cfg),
                    linear_top_k_diverse(&visible, &q, at, &cfg),
                    "{} shards, query {:?}", shards, q
                );
            }
        }

        /// Metamorphic properties of retrieval: shifting every timestamp
        /// (entries and query) by one constant, or appending a duplicate
        /// of an indexed entry, leaves the answer's ids and similarity
        /// bits unchanged — only gaps and distances count, and a later
        /// duplicate loses every tie to its original.
        #[test]
        fn retrieval_ignores_time_shifts_and_duplicates(
            k in 1usize..8,
            alpha in 0.0f64..2.0,
            shift_secs in 0u64..40_000_000,
            dup in 0usize..50,
            query_day in 0u64..364,
            specs in proptest::collection::vec(
                (0u64..364, 0usize..6, 0i32..4, 0i32..4), 1..50)
        ) {
            let answer = |idx: &HistoricalIndex, at: SimTime| -> Vec<(usize, u64)> {
                idx.top_k_diverse(&[1.0, 2.0], at, &RetrievalConfig { k, alpha })
                    .iter()
                    .map(|n| (n.entry.id, n.similarity.to_bits()))
                    .collect()
            };
            let shift = SimDuration::from_secs(shift_secs);
            let (mut base, mut shifted) = (HistoricalIndex::new(), HistoricalIndex::new());
            for (i, &(day, cat, x, y)) in specs.iter().enumerate() {
                let e = grid_entry(i, day, cat, x, y);
                shifted.add(HistoricalEntry { at: e.at + shift, ..e.clone() });
                base.add(e);
            }
            let at = SimTime::from_days(query_day);
            let want = answer(&base, at);
            prop_assert_eq!(&answer(&shifted, at + shift), &want);
            let copy = HistoricalEntry {
                id: usize::MAX,
                ..base.entries()[dup % specs.len()].clone()
            };
            base.add(copy);
            prop_assert_eq!(&answer(&base, at), &want);
        }
    }
}
