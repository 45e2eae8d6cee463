//! The **type store**: one concurrent arena with a lock-free warm path,
//! behind the id-level algorithms of [`crate::store`].
//!
//! Memoized normal forms make equivalence O(1) amortized. This module
//! shares the arena and its memos across threads without making any
//! warm read take a lock or an atomic read-modify-write:
//!
//! * [`SharedStore`] — the process-wide source of truth. It owns
//!   - a **lock-free append-only arena** (the id space): a spine of
//!     doubling segments of slots. A slot holds a node, its
//!     `needs_binders` measure and the node's memoized `nrm⁺`/`nrm⁻`
//!     normal forms. The node is written exactly once, before its id is
//!     handed out, and each memo cell at most once;
//!   - a **lock-free hash-consing index** over the arena (node → id):
//!     open addressing in doubling levels, written by one writer at a
//!     time and probed by anyone with plain acquire loads; and
//!   - a single **writer mutex** over the current epoch's arena,
//!     serializing appends to the arena and the index. Only commits,
//!     compactions and workers attaching or repinning take it.
//! * [`WorkerStore`] — a per-thread handle: it pins one epoch's arena
//!   and keeps a little worker-private state: a **private overlay** of
//!   the nodes the running operation created, the memo entries that
//!   cannot be shared yet, binder-name hints and the extraction memo.
//!
//! ## The warm path takes zero locks
//!
//! A warm read — id lookup, `nrm` memo hit, intern hit on an existing
//! node — is a probe of the index and loads from arena slots. Only an
//! operation that created nodes enters the writer mutex, once. The
//! always-on [`StoreStats::lock_acquisitions`] counter records every
//! lock taken, so "warm replay acquires zero locks" is a testable
//! invariant, not a hope (see `tests/snapshot_stress.rs`).
//!
//! ## Overlay and commit
//!
//! A cold operation (`intern`, `nrm`, `nrm_neg`, substitution,
//! β-instantiation) does not take a lock per new node. Every node it
//! creates goes to the worker's **overlay** under a *tagged* id (top bit
//! set, see [`TypeId::is_overlay`]), hash-consed there first. A node
//! with an overlay child cannot be in the arena yet, so it skips the
//! index probe.
//!
//! When the operation ends ([`StoreOps::settle`]) the worker **commits**
//! the overlay under **one** writer-mutex acquisition. In creation order
//! (children precede parents), each node's children are rewritten to
//! their public ids and the node is probed in the index again (a sibling
//! may have committed it meanwhile, or an equal node may come earlier
//! in this very commit); nodes found nowhere are appended. The worker
//! then writes the operation's deferred memo entries into the arena,
//! rewrites its hints and the operation's results through the returned
//! remap, and empties the overlay, so a non-stale worker never hands
//! out an overlay id.
//!
//! ## Publication protocol
//!
//! * **Nodes** become visible to every worker when their commit inserts
//!   them into the index.
//! * **Memo entries**: a normal form whose ids are all public is
//!   written into its node's slot at once (compare-and-set from empty,
//!   lock-free); one that names overlay ids waits for the commit. `nrm`
//!   is deterministic and ids are canonical, so two workers computing
//!   `nrm(id)` independently write the *same* value: a memo cell never
//!   changes once set.
//! * **Counters**: [`WorkerStore::publish`], which the serving engine
//!   calls once per batch, folds the worker's hit/miss counters and its
//!   private-memory estimate into the store's statistics. It takes no
//!   lock and makes nothing visible that a commit has not already.
//!
//! ## Memory ordering invariants
//!
//! * A slot's node is written through a `OnceLock`: the writer's `set`
//!   (release) pairs with every reader's `get` (acquire).
//! * An index bucket is stored (release) after its slot is written and
//!   loaded (acquire) before the slot is read; a new index level is
//!   filled before the level counter is raised (release) and read after
//!   it is loaded (acquire).
//! * A memo cell is set (release) after the slot its value names is
//!   written, and read with acquire ordering.
//!
//! Ids otherwise travel between threads only through synchronizing
//! edges (the writer mutex, a channel send, a memo cell), each of which
//! happens-after the slot write on the writer thread.
//!
//! ## Id agreement
//!
//! All workers of one [`SharedStore`] agree on every id they hand out:
//! a node enters the arena exactly once (under the writer mutex, after
//! the re-probe), and every worker reads nodes from that one arena. An
//! overlay id is provisional: one operation may hold two overlay ids
//! for one node, or an overlay id for a node a sibling committed after
//! the probe. The commit maps all of them to the one arena id, and only
//! committed ids leave an operation, so results are compared only after
//! the commit (see [`StoreOps::equivalent_ids`]).
//!
//! The id-level algorithms themselves (`intern`, `nrm⁺`/`nrm⁻`,
//! substitution, β-instantiation, extraction) are written once in
//! [`crate::store`] against [`StoreOps`], which [`WorkerStore`]
//! implements; [`WorkerStore::check_invariants`] verifies the arena,
//! index and memo cells they leave behind.
//!
//! ## Compaction: epochs and the remap/install protocol
//!
//! The arena and its index are append-only, so a long-lived store grows
//! without bound under diverse traffic. [`SharedStore::compact`] bounds
//! it. A compaction runs entirely behind the writer mutex and **never
//! blocks warm readers**:
//!
//! 1. **Mark**: compute the live set — every id reachable from the
//!    caller's retained `roots` through node children, plus (to keep
//!    warm state warm) the memoized `nrm⁺`/`nrm⁻` values of live ids,
//!    transitively to a fixpoint.
//! 2. **Rebuild**: copy live nodes into a *fresh* arena and index in
//!    old-index order — children precede parents in an append-only
//!    arena, so every child is remapped before its parent needs it, and
//!    the new arena is again topological. Memo cells come along
//!    remapped. Workers set memo cells without the writer mutex, so a
//!    cell may gain a value between the two passes; such a value is
//!    copied only if the mark pass found it live.
//! 3. **Install**: make the new arena current with `epoch + 1`.
//!
//! Ids are only meaningful *within* an epoch. A worker pins the arena
//! of the epoch it attached to, and that arena stays alive and
//! self-consistent no matter how many compactions happen underneath. A
//! worker that discovers the store has moved to a newer epoch — when a
//! commit finds a new epoch — marks itself **stale**
//! instead of adopting mixed-epoch state. No commit appends to a
//! retired arena, so its index is complete and frozen, and the stale
//! worker keeps answering correctly on its own: the nodes it creates
//! stay in its overlay for good (their tagged ids cannot collide with
//! any arena id), and its memo entries stay private. The operation
//! whose commit found the new epoch is run again from scratch, since its
//! overlay was built while siblings could still add to the index.
//! Staleness ends at an explicit [`WorkerStore::repin`] — a deliberate
//! boundary (the serving engine calls it between request batches) where
//! the worker adopts the newest epoch, drops all private state, and the
//! caller drops any id-keyed caches (using the remap table
//! [`CompactionOutcome`] hands back, or by recomputing).
//!
//! Because the live set closes over memo values, a compaction retains
//! the warm working set: a fully-warm replay against a compacted store
//! still takes **zero** locks (see `tests/concurrent_store.rs`).
//!
//! ## Memory accounting
//!
//! [`StoreStats::live_bytes`] — the quantity `--max-store-bytes` and
//! the per-tenant byte quota bound — covers the arena, its index and
//! every worker's private state (overlay, private memo entries, hints,
//! extraction memo). Workers report their private bytes at each
//! publish, so the figure trails by at most one batch, and withdraw
//! them at [`WorkerStore::repin`], which drops that state. A compaction
//! retires every worker's private state with the old epoch, so its
//! [`CompactionOutcome::bytes_after`] counts only the new arena and
//! index.

use crate::hash::SeededState;
use crate::spine::Spine;
use crate::store::{compute_needs, for_each_child, is_hint_worthy, map_children};
use crate::store::{StoreOps, TNode, TypeId};
use crate::symbol::Symbol;
use crate::types::Type;
use algst_obs::{Field, Histogram, Level, Span, TraceSink};
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::mem::size_of;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// log2 of the first index level's bucket count.
const LEVEL0_BITS: u32 = 10;

/// Number of doubling index levels: the last holds 2^32 buckets, room
/// for every arena id at the load bound.
const LEVELS: usize = 23;

/// An empty memo cell (no arena id reaches it: ids stay below 2^31).
const NO_MEMO: u32 = u32::MAX;

// ------------------------------------------------------------- arena

/// One arena entry: a node, its `needs_binders` measure
/// (`1 + max escaping de-Bruijn index`), which substitution reads, and
/// its memoized normal forms.
struct Slot {
    node: TNode,
    needs: u32,
    /// `nrm⁺` of this node, or [`NO_MEMO`]. Set at most once.
    pos: AtomicU32,
    /// `nrm⁻` of this node, or [`NO_MEMO`]. Set at most once.
    neg: AtomicU32,
}

impl Slot {
    fn new(node: TNode, needs: u32) -> Slot {
        Slot {
            node,
            needs,
            pos: AtomicU32::new(NO_MEMO),
            neg: AtomicU32::new(NO_MEMO),
        }
    }

    fn cell(&self, polarity: Polarity) -> &AtomicU32 {
        match polarity {
            Polarity::Pos => &self.pos,
            Polarity::Neg => &self.neg,
        }
    }

    /// The memoized normal form of this node, if set (one acquire load).
    fn memo(&self, polarity: Polarity) -> Option<TypeId> {
        match self.cell(polarity).load(Ordering::Acquire) {
            NO_MEMO => None,
            nf => Some(TypeId::from_index(nf as usize)),
        }
    }
}

/// Which normalization function a memo entry belongs to.
#[derive(Clone, Copy)]
enum Polarity {
    /// `nrm⁺`.
    Pos,
    /// `nrm⁻`.
    Neg,
}

const POLARITIES: [Polarity; 2] = [Polarity::Pos, Polarity::Neg];

/// One epoch's id space: a lock-free append-only node arena plus its
/// hash-consing index. Slots are appended only under the writer mutex,
/// each before its id is handed out, and never move, so readers need no
/// lock.
struct Arena {
    /// The compaction epoch this arena belongs to.
    epoch: u64,
    slots: Spine<Slot>,
    index: Index,
    /// Private bytes reported by the workers pinned to this arena (their
    /// share of the store's `worker_bytes`).
    worker_bytes: AtomicU64,
}

impl Arena {
    fn new(epoch: u64) -> Arena {
        Arena {
            epoch,
            slots: Spine::new(),
            index: Index::new(),
            worker_bytes: AtomicU64::new(0),
        }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    /// Reads a committed slot. Lock-free: two acquire loads (segment
    /// pointer, slot).
    fn get(&self, i: usize) -> &Slot {
        self.slots.get(i)
    }

    /// The id of `node`, if the index has it. Lock-free.
    fn lookup(&self, node: &TNode) -> Option<TypeId> {
        self.index.find(self, node, self.index.tag(node))
    }

    /// Hash-conses `node` (children already ids of this arena): the
    /// existing id, or a fresh slot. Caller holds the writer mutex.
    fn intern_locked(&self, node: TNode, needs: u32) -> (TypeId, bool) {
        debug_assert!(
            {
                let mut overlay_child = false;
                for_each_child(&node, |c| overlay_child |= c.is_overlay());
                !overlay_child
            },
            "an overlay id reached the arena"
        );
        let tag = self.index.tag(&node);
        if let Some(id) = self.index.find(self, &node, tag) {
            return (id, false);
        }
        let id = TypeId::from_index(self.slots.push(Slot::new(node, needs)));
        self.index.insert(tag, id);
        (id, true)
    }
}

// ------------------------------------------------------------- index

/// Lock-free hash-consing index of one arena: node → id. Open
/// addressing with linear probing; a bucket packs a 32-bit hash tag
/// (high half) with `id + 1` (low half, 0 = empty). One writer at a
/// time (the writer mutex) inserts; anyone probes.
///
/// The index grows by levels: when the current level passes its load
/// bound, the writer copies it into a fresh level of twice the size and
/// then raises `top`. A reader probes the level `top` named when it
/// looked; if the writer has grown the index since, the reader may miss
/// a node inserted into the newer level, which only sends the node to
/// the reader's overlay, where its commit finds it. Superseded levels
/// are kept for such readers until the arena is dropped.
struct Index {
    levels: [OnceLock<Box<[AtomicU64]>>; LEVELS],
    /// The level holding every entry. Raised (release) by the writer.
    top: AtomicUsize,
    /// Entries. Writer-only (under the writer mutex).
    len: AtomicUsize,
    hasher: SeededState,
}

impl Index {
    fn new() -> Index {
        let index = Index {
            levels: [const { OnceLock::new() }; LEVELS],
            top: AtomicUsize::new(0),
            len: AtomicUsize::new(0),
            hasher: SeededState::default(),
        };
        let _ = index.levels[0].set(empty_level(LEVEL0_BITS));
        index
    }

    fn tag(&self, node: &TNode) -> u32 {
        self.hasher.hash_one(node) as u32
    }

    fn level(&self, k: usize) -> &[AtomicU64] {
        self.levels[k].get().expect("index level missing")
    }

    fn find(&self, arena: &Arena, node: &TNode, tag: u32) -> Option<TypeId> {
        let level = self.level(self.top.load(Ordering::Acquire));
        let mask = level.len() - 1;
        let mut i = tag as usize & mask;
        loop {
            let bucket = level[i].load(Ordering::Acquire);
            if bucket == 0 {
                return None;
            }
            if (bucket >> 32) as u32 == tag {
                let id = TypeId::from_index((bucket as u32 - 1) as usize);
                if arena.get(id.index()).node == *node {
                    return Some(id);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Adds `id` under `tag`, growing first if the level would pass
    /// three quarters full. Caller holds the writer mutex.
    fn insert(&self, tag: u32, id: TypeId) {
        let len = self.len.load(Ordering::Relaxed) + 1;
        let mut top = self.top.load(Ordering::Relaxed);
        if len * 4 > self.level(top).len() * 3 {
            let bigger = empty_level(LEVEL0_BITS + top as u32 + 1);
            for bucket in self.level(top) {
                let bucket = bucket.load(Ordering::Relaxed);
                if bucket != 0 {
                    place(&bigger, bucket);
                }
            }
            top += 1;
            let _ = self.levels[top].set(bigger);
            self.top.store(top, Ordering::Release);
        }
        place(
            self.level(top),
            (u64::from(tag) << 32) | (id.index() as u64 + 1),
        );
        self.len.store(len, Ordering::Relaxed);
    }

    /// Estimated bytes of every level allocated so far.
    fn bytes(&self) -> u64 {
        let top = self.top.load(Ordering::Relaxed);
        (0..=top)
            .map(|k| std::mem::size_of_val(self.level(k)) as u64)
            .sum()
    }
}

fn empty_level(bits: u32) -> Box<[AtomicU64]> {
    (0..1usize << bits).map(|_| AtomicU64::new(0)).collect()
}

/// Stores `bucket` in the first free bucket of its probe sequence.
fn place(level: &[AtomicU64], bucket: u64) {
    let mask = level.len() - 1;
    let mut i = (bucket >> 32) as usize & mask;
    while level[i].load(Ordering::Relaxed) != 0 {
        i = (i + 1) & mask;
    }
    level[i].store(bucket, Ordering::Release);
}

// ------------------------------------------------------- accounting

/// Estimated heap footprint of one arena node (slot plus the child
/// vectors of `Proto`/`Data`). An estimate, not an allocator census —
/// it only has to be monotone in real usage so the bounded-memory
/// policy has a stable trigger.
fn node_bytes(node: &TNode) -> u64 {
    let heap = match node {
        TNode::Proto(_, args) | TNode::Data(_, args) => args.len() * size_of::<TypeId>(),
        _ => 0,
    };
    (size_of::<OnceLock<Slot>>() + heap) as u64
}

/// Estimated per-entry cost of a hash map (key + value + table
/// bookkeeping come on top).
const MAP_ENTRY_OVERHEAD: usize = 16;

/// Estimated bytes of one extracted tree node (the node plus its `Arc`
/// header).
const TREE_NODE_BYTES: u64 = size_of::<Type>() as u64 + 16;

// ------------------------------------------------------------- stats

#[derive(Default)]
struct Counters {
    /// `nrm` memo hits answered from a worker's private state.
    nrm_local_hits: AtomicU64,
    /// `nrm` memo hits answered by an arena memo cell.
    nrm_shared_hits: AtomicU64,
    /// `nrm` memo misses (a normal form actually computed).
    nrm_misses: AtomicU64,
    /// Workers ever attached.
    workers: AtomicU64,
    /// Overlay commits (each one writer-mutex acquisition).
    slow_path: AtomicU64,
    /// Every acquisition of the store's writer mutex. Zero across a
    /// warm replay.
    lock_acquisitions: AtomicU64,
    /// Completed [`SharedStore::compact`] passes.
    compactions: AtomicU64,
    /// Total estimated bytes reclaimed by compactions.
    reclaimed_bytes: AtomicU64,
}

/// Lock-free mirrors of the store's sizes, so `stats()` and the
/// bounded-memory policy check ([`SharedStore::live_bytes`]) never
/// touch a lock. Node and index sizes are written under the writer
/// mutex (at commits and compactions), memo counts when a cell is set,
/// and `worker_bytes` by each worker at publish. All are read with
/// relaxed loads by anyone.
#[derive(Default)]
struct Sizes {
    /// Live nodes in the current epoch's arena.
    nodes: AtomicUsize,
    /// Estimated bytes of those nodes.
    arena_bytes: AtomicU64,
    /// Estimated bytes of the current arena's index.
    index_bytes: AtomicU64,
    /// Memo cells set in the current epoch's arena.
    memo_entries: AtomicU64,
    /// Estimated bytes of every attached worker's private state, as of
    /// each worker's last publish.
    worker_bytes: AtomicU64,
}

/// A point-in-time snapshot of store-wide statistics, for the server's
/// `stats` op and `--stats-on-exit`. Worker-side counters are folded in
/// on every publish, so numbers trail the live state by at most one
/// batch per worker.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Distinct hash-consed nodes in the current epoch's arena.
    pub nodes: u64,
    /// Estimated bytes held by the arena's live nodes (memo cells
    /// included).
    pub arena_bytes: u64,
    /// Estimated bytes held by the arena's hash-consing index.
    pub index_bytes: u64,
    /// Estimated bytes of worker-private state (overlays, private memo
    /// entries, hints, extraction memos), as of each worker's last
    /// publish.
    pub worker_bytes: u64,
    /// `nrm⁺` + `nrm⁻` memo cells set in the current epoch's arena.
    pub memo_entries: u64,
    /// Compaction epoch (0 = never compacted).
    pub epoch: u64,
    /// Completed compaction passes.
    pub compactions: u64,
    /// Total estimated bytes reclaimed by compactions.
    pub reclaimed_bytes: u64,
    /// `nrm⁺`/`nrm⁻` memo hits (worker-private state + arena).
    pub nrm_hits: u64,
    /// Of those, hits read from an arena memo cell.
    pub nrm_shared_hits: u64,
    /// `nrm⁺`/`nrm⁻` computations that found no memo entry.
    pub nrm_misses: u64,
    /// Workers ever attached to this store.
    pub workers: u64,
    /// Overlay commits, each of which took the writer mutex once.
    pub slow_path: u64,
    /// Total lock acquisitions on the shared store. A fully-warm
    /// replay adds exactly zero (see `tests/snapshot_stress.rs`).
    pub lock_acquisitions: u64,
}

impl StoreStats {
    /// Estimated live bytes of the store: arena nodes, its index and
    /// worker-private state. The quantity the `--max-store-bytes`
    /// policy bounds.
    pub fn live_bytes(&self) -> u64 {
        self.arena_bytes + self.index_bytes + self.worker_bytes
    }

    /// Fraction of `nrm` queries answered from a memo, in `[0, 1]`.
    pub fn nrm_hit_rate(&self) -> f64 {
        let total = self.nrm_hits + self.nrm_misses;
        if total == 0 {
            return 0.0;
        }
        self.nrm_hits as f64 / total as f64
    }
}

// ------------------------------------------------------- SharedStore

/// Observability hooks a store owner (typically the serving engine) may
/// install with [`SharedStore::install_obs`].
///
/// The hooks live entirely on the store's **cold** paths — overlay
/// commits and compactions — so installing them does not add a single
/// instruction to warm lock-free reads.
#[derive(Debug)]
pub struct StoreObs {
    /// Latency histogram for overlay commits (writer mutex + re-probes
    /// + arena appends).
    pub slow_path_ns: Arc<Histogram>,
    /// Event sink; receives a `store_compaction` event (at
    /// [`Level::Debug`]) for every compaction.
    pub sink: Arc<TraceSink>,
}

/// What one [`SharedStore::compact`] pass did. The remap table is the
/// caller's bridge from the old epoch to the new: every retained root
/// (and everything live through it) appears as a key.
#[derive(Debug)]
pub struct CompactionOutcome {
    /// The new epoch installed by this pass.
    pub epoch: u64,
    /// Arena nodes before / after the pass.
    pub nodes_before: usize,
    pub nodes_after: usize,
    /// Estimated live bytes before / after the pass: the arena and
    /// index, plus (before) the private state of the workers pinned to
    /// the old epoch, which goes at each worker's repin.
    pub bytes_before: u64,
    pub bytes_after: u64,
    /// Old-epoch id → new-epoch id, for every live id.
    pub remap: HashMap<TypeId, TypeId>,
}

/// The process-wide arena and index. Cheap to share (`Arc`); create
/// per-thread handles with [`SharedStore::worker`].
pub struct SharedStore {
    /// Fast epoch probe: equals the current arena's epoch. Lets
    /// [`WorkerStore::repin`] cost one atomic load when nothing moved.
    epoch: AtomicU64,
    /// Writer mutex over the current epoch's arena: serializes appends,
    /// compactions, and workers attaching or repinning. Never taken on
    /// the warm path.
    writer: Mutex<Arc<Arena>>,
    counters: Counters,
    /// Lock-free size mirrors for `stats()` / `live_bytes()`.
    sizes: Sizes,
    /// Cold-path instrumentation, if an owner installed any.
    obs: OnceLock<StoreObs>,
}

impl std::fmt::Debug for SharedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedStore")
            .field("nodes", &self.len())
            .field("epoch", &self.epoch())
            .finish()
    }
}

impl Default for SharedStore {
    fn default() -> SharedStore {
        SharedStore::new()
    }
}

impl SharedStore {
    pub fn new() -> SharedStore {
        let arena = Arc::new(Arena::new(0));
        let sizes = Sizes::default();
        sizes
            .index_bytes
            .store(arena.index.bytes(), Ordering::Relaxed);
        SharedStore {
            epoch: AtomicU64::new(0),
            writer: Mutex::new(arena),
            counters: Counters::default(),
            sizes,
            obs: OnceLock::new(),
        }
    }

    /// Install cold-path observability hooks (a slow-path histogram
    /// plus an event sink). Returns `false` if hooks were already
    /// installed — the first installer wins, so two engines sharing one
    /// store do not double-count.
    pub fn install_obs(&self, obs: StoreObs) -> bool {
        self.obs.set(obs).is_ok()
    }

    /// Convenience: a fresh store behind an [`Arc`], ready for
    /// [`SharedStore::worker`].
    pub fn new_arc() -> Arc<SharedStore> {
        Arc::new(SharedStore::new())
    }

    /// Attaches a new per-thread worker handle (one counted lock, to
    /// pin the current arena).
    pub fn worker(self: &Arc<Self>) -> WorkerStore {
        self.counters.workers.fetch_add(1, Ordering::Relaxed);
        WorkerStore {
            arena: self.current_arena(),
            shared: Arc::clone(self),
            overlay: Overlay::default(),
            private_pos: HashMap::new(),
            private_neg: HashMap::new(),
            hints: HashMap::new(),
            extract_memo: HashMap::new(),
            extract_bytes: 0,
            reported_bytes: 0,
            stale: false,
            local_hits: 0,
            shared_hits: 0,
            misses: 0,
        }
    }

    /// Live nodes in the current epoch's arena (lock-free).
    pub fn len(&self) -> usize {
        self.sizes.nodes.load(Ordering::Acquire)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current compaction epoch (lock-free; 0 = never compacted).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Estimated live bytes (arena nodes + index + worker-private
    /// state). Three relaxed atomic loads — the bounded-memory policy
    /// can call this per request without touching the warm path.
    pub fn live_bytes(&self) -> u64 {
        self.sizes.arena_bytes.load(Ordering::Relaxed)
            + self.sizes.index_bytes.load(Ordering::Relaxed)
            + self.sizes.worker_bytes.load(Ordering::Relaxed)
    }

    /// Snapshot of the store-wide statistics (lock-free).
    pub fn stats(&self) -> StoreStats {
        let c = &self.counters;
        let z = &self.sizes;
        StoreStats {
            nodes: self.len() as u64,
            arena_bytes: z.arena_bytes.load(Ordering::Relaxed),
            index_bytes: z.index_bytes.load(Ordering::Relaxed),
            worker_bytes: z.worker_bytes.load(Ordering::Relaxed),
            memo_entries: z.memo_entries.load(Ordering::Relaxed),
            epoch: self.epoch.load(Ordering::Relaxed),
            compactions: c.compactions.load(Ordering::Relaxed),
            reclaimed_bytes: c.reclaimed_bytes.load(Ordering::Relaxed),
            nrm_hits: c.nrm_local_hits.load(Ordering::Relaxed)
                + c.nrm_shared_hits.load(Ordering::Relaxed),
            nrm_shared_hits: c.nrm_shared_hits.load(Ordering::Relaxed),
            nrm_misses: c.nrm_misses.load(Ordering::Relaxed),
            workers: c.workers.load(Ordering::Relaxed),
            slow_path: c.slow_path.load(Ordering::Relaxed),
            lock_acquisitions: c.lock_acquisitions.load(Ordering::Relaxed),
        }
    }

    fn count_lock(&self) {
        self.counters
            .lock_acquisitions
            .fetch_add(1, Ordering::Relaxed);
    }

    /// The current epoch's arena (one counted lock).
    fn current_arena(&self) -> Arc<Arena> {
        self.count_lock();
        Arc::clone(&self.writer.lock())
    }

    /// Sets a memo cell of `slot` in `arena`. Lock-free; cold path
    /// only. A cell already set holds the same value: `nrm` is
    /// deterministic and ids are canonical.
    fn set_memo(&self, arena: &Arena, id: TypeId, polarity: Polarity, nf: TypeId) {
        debug_assert!(!nf.is_overlay(), "an overlay id reached the arena");
        let nf = nf.index() as u32;
        let cell = arena.get(id.index()).cell(polarity);
        match cell.compare_exchange(NO_MEMO, nf, Ordering::Release, Ordering::Relaxed) {
            Ok(_) if arena.epoch == self.epoch.load(Ordering::Relaxed) => {
                self.sizes.memo_entries.fetch_add(1, Ordering::Relaxed);
            }
            Ok(_) => {}
            Err(prev) => debug_assert_eq!(prev, nf, "a memo cell changed"),
        }
    }

    /// Commits a worker's overlay under one writer-mutex acquisition:
    /// the only place nodes are appended outside compaction. Returns
    /// the public id of every overlay slot — or `None` when the store
    /// has moved past `arena`'s epoch, in which case the overlay's
    /// children are ids of a retired arena and the caller must keep its
    /// overlay private (see [`WorkerStore`] staleness).
    fn commit(&self, arena: &Arc<Arena>, slots: &[OverlaySlot]) -> Option<Vec<TypeId>> {
        let span = self.obs.get().map(|_| Span::begin());
        self.counters.slow_path.fetch_add(1, Ordering::Relaxed);
        self.count_lock();
        let current = self.writer.lock();
        if !Arc::ptr_eq(&current, arena) {
            return None;
        }
        let mut remap: Vec<TypeId> = Vec::with_capacity(slots.len());
        let mut bytes = 0;
        for slot in slots {
            // Slots are in creation order, so every overlay child is
            // already remapped.
            let node = map_children(&slot.node, |c| c.overlay_index().map_or(c, |i| remap[i]));
            let node_size = node_bytes(&node);
            let (id, fresh) = arena.intern_locked(node, slot.needs);
            if fresh {
                bytes += node_size;
            }
            remap.push(id);
        }
        self.sizes.nodes.store(arena.len(), Ordering::Release);
        self.sizes.arena_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.sizes
            .index_bytes
            .store(arena.index.bytes(), Ordering::Relaxed);
        drop(current);
        if let (Some(obs), Some(span)) = (self.obs.get(), span) {
            obs.slow_path_ns.record(span.elapsed_ns());
        }
        Some(remap)
    }

    /// Compacts the store: drops every node not reachable from `roots`
    /// (plus the memoized normal forms of live ids, kept so the warm
    /// working set survives), rebuilds the arena and its index in a
    /// fresh epoch, and installs the result. See the module docs
    /// ("Compaction") for the full protocol.
    ///
    /// Runs behind the writer mutex; warm readers keep reading their
    /// pinned epoch throughout and never block. Roots that do not name
    /// a current-epoch id (e.g. collected before a racing compaction,
    /// or a stale worker's overlay ids) are ignored.
    pub fn compact(&self, roots: &[TypeId]) -> CompactionOutcome {
        let span = self.obs.get().map(|_| Span::begin());
        self.count_lock();
        let mut current = self.writer.lock();
        let old_arena = Arc::clone(&current);
        // Only the private state of workers pinned to this epoch: a
        // stale worker's was counted by the compaction that retired it.
        let bytes_before = self.sizes.arena_bytes.load(Ordering::Relaxed)
            + self.sizes.index_bytes.load(Ordering::Relaxed)
            + old_arena.worker_bytes.load(Ordering::Relaxed);
        let live = old_arena.mark(roots);
        let Rebuilt {
            arena: new_arena,
            remap: remap_vec,
            arena_bytes,
            memo_entries,
        } = old_arena.rebuild(&live);

        let (epoch, nodes_after) = (new_arena.epoch, new_arena.len());
        let index_bytes = new_arena.index.bytes();
        self.sizes.nodes.store(nodes_after, Ordering::Release);
        self.sizes.arena_bytes.store(arena_bytes, Ordering::Relaxed);
        self.sizes.index_bytes.store(index_bytes, Ordering::Relaxed);
        self.sizes
            .memo_entries
            .store(memo_entries, Ordering::Relaxed);
        // Workers attach through the writer mutex, which also publishes
        // the memo cells written by the rebuild.
        *current = Arc::new(new_arena);
        self.epoch.store(epoch, Ordering::Release);
        drop(current);
        self.counters.compactions.fetch_add(1, Ordering::Relaxed);

        let bytes_after = arena_bytes + index_bytes;
        self.counters
            .reclaimed_bytes
            .fetch_add(bytes_before.saturating_sub(bytes_after), Ordering::Relaxed);
        let remap: HashMap<TypeId, TypeId> = remap_vec
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.map(|n| (TypeId::from_index(i), n)))
            .collect();
        if let (Some(obs), Some(span)) = (self.obs.get(), span) {
            if obs.sink.enabled(Level::Debug) {
                obs.sink.event(
                    Level::Debug,
                    "store_compaction",
                    &[
                        ("epoch", Field::U64(epoch)),
                        ("nodes_before", Field::U64(live.len() as u64)),
                        ("nodes_after", Field::U64(nodes_after as u64)),
                        ("bytes_before", Field::U64(bytes_before)),
                        ("bytes_after", Field::U64(bytes_after)),
                        ("compact_us", Field::F64(span.elapsed_ns() as f64 / 1_000.0)),
                    ],
                );
            }
        }
        CompactionOutcome {
            epoch,
            nodes_before: live.len(),
            nodes_after,
            bytes_before,
            bytes_after,
            remap,
        }
    }
}

/// A compacted copy of an arena (see [`Arena::rebuild`]).
struct Rebuilt {
    arena: Arena,
    /// Old index → new id, for every live old index.
    remap: Vec<Option<TypeId>>,
    arena_bytes: u64,
    memo_entries: u64,
}

impl Arena {
    /// Compaction's mark pass: the ids reachable from `roots` through
    /// node children and memo values, as a flag per arena index. Roots
    /// outside the arena are ignored.
    fn mark(&self, roots: &[TypeId]) -> Vec<bool> {
        let len = self.len();
        let mut live = vec![false; len];
        let mut stack: Vec<usize> = roots
            .iter()
            .map(|r| r.index())
            .filter(|&i| i < len)
            .collect();
        while let Some(i) = stack.pop() {
            if live[i] {
                continue;
            }
            live[i] = true;
            let slot = self.get(i);
            for_each_child(&slot.node, |c| stack.push(c.index()));
            for p in POLARITIES {
                stack.extend(slot.memo(p).map(TypeId::index));
            }
        }
        live
    }

    /// Compaction's copy pass: the `live` nodes in a fresh arena of the
    /// next epoch, in old-index order. Children precede parents, so
    /// every child is remapped before a parent mentions it, and the new
    /// arena is again topological (store invariant). Memo values may
    /// point forward, so they are copied in a second pass.
    fn rebuild(&self, live: &[bool]) -> Rebuilt {
        let arena = Arena::new(self.epoch + 1);
        let mut remap: Vec<Option<TypeId>> = vec![None; live.len()];
        let mut arena_bytes = 0;
        for (i, _) in live.iter().enumerate().filter(|(_, &alive)| alive) {
            let old = self.get(i);
            let node = map_children(&old.node, |c| {
                remap[c.index()].expect("child of a live node must be live")
            });
            arena_bytes += node_bytes(&node);
            remap[i] = Some(arena.intern_locked(node, old.needs).0);
        }
        let mut memo_entries = 0;
        for (i, new) in remap.iter().enumerate() {
            let Some(new) = new else { continue };
            let (old, new) = (self.get(i), arena.get(new.index()));
            for p in POLARITIES {
                // A worker may have set this cell after the mark pass
                // (memo cells are written without the writer mutex), so
                // its value is copied only if it was marked live.
                if let Some(v) = old.memo(p).and_then(|v| remap[v.index()]) {
                    new.cell(p).store(v.index() as u32, Ordering::Relaxed);
                    memo_entries += 1;
                }
            }
        }
        Rebuilt {
            arena,
            remap,
            arena_bytes,
            memo_entries,
        }
    }
}

// ------------------------------------------------------- WorkerStore

/// A node created by a worker and not (yet) in the shared arena, with
/// the memo entries and binder hint that are keyed by its overlay id.
struct OverlaySlot {
    node: TNode,
    needs: u32,
    pos: Option<TypeId>,
    neg: Option<TypeId>,
    hint: Option<Symbol>,
}

/// A worker's private nodes: those the running operation created (a
/// non-stale worker commits and empties it when the operation ends) or,
/// for a stale worker, every node created since it went stale.
#[derive(Default)]
struct Overlay {
    /// Indexed by overlay id, in creation order.
    slots: Vec<OverlaySlot>,
    /// Hash-consing map over `slots`.
    ids: HashMap<TNode, TypeId, SeededState>,
}

/// A per-thread (or per-worker) handle onto a [`SharedStore`].
///
/// Implements the id-level operations — `intern`, `nrm`,
/// `equivalent_ids`, substitution, extraction — through the
/// [`StoreOps`] algorithms. Nodes, the index and memoized normal forms
/// are read straight from the pinned epoch's lock-free arena, so warm
/// queries take no locks. A cold operation builds its new nodes in a
/// private overlay and commits them with one writer-mutex acquisition
/// when it ends.
pub struct WorkerStore {
    shared: Arc<SharedStore>,
    /// The pinned epoch's arena: every public id this worker handles
    /// names one of its slots.
    arena: Arc<Arena>,
    overlay: Overlay,
    /// Memo entries for arena ids that cannot go into the arena: in a
    /// running operation, those whose normal form is an overlay id (set
    /// in the arena at the commit); in a stale worker, all of them.
    private_pos: HashMap<TypeId, TypeId>,
    private_neg: HashMap<TypeId, TypeId>,
    /// Display names of `Forall` arena ids, first intern wins. Hints
    /// stay worker-local: each worker shows the names *it* first saw.
    hints: HashMap<TypeId, Symbol>,
    /// Whole-tree extraction memo, with each tree's estimated bytes.
    extract_memo: HashMap<TypeId, (Type, u64)>,
    extract_bytes: u64,
    /// Private bytes last added to the store's `worker_bytes`.
    reported_bytes: u64,
    /// Set when the store compacted past this worker's pinned epoch.
    /// A stale worker keeps answering from its pinned arena, keeps cold
    /// nodes in its overlay and memo entries private — until [`WorkerStore::repin`] adopts the new epoch.
    stale: bool,
    local_hits: u64,
    shared_hits: u64,
    misses: u64,
}

impl std::fmt::Debug for WorkerStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerStore")
            .field("epoch", &self.arena.epoch)
            .field("overlay", &self.overlay.slots.len())
            .field("stale", &self.stale)
            .finish()
    }
}

impl WorkerStore {
    /// The shared store this worker belongs to.
    pub fn shared(&self) -> &Arc<SharedStore> {
        &self.shared
    }

    /// This worker's pinned compaction epoch.
    pub fn epoch(&self) -> u64 {
        self.arena.epoch
    }

    /// True once a commit has found the store compacted past this
    /// worker's pinned epoch (cleared by [`WorkerStore::repin`]).
    pub fn is_stale(&self) -> bool {
        self.stale
    }

    /// Drops everything the running operation created that is not yet
    /// in the arena: its overlay nodes and its deferred memo entries.
    fn discard_operation(&mut self) {
        self.overlay = Overlay::default();
        self.private_pos = HashMap::new();
        self.private_neg = HashMap::new();
    }

    /// Adopts the newest epoch after a compaction: drops the overlay,
    /// private memo entries, hints and the extraction memo, and
    /// withdraws their bytes from the store's statistics. Returns true
    /// when the epoch actually changed — the caller must then drop or
    /// remap every `TypeId`-keyed cache it holds, because old ids no
    /// longer name the store's arena. Costs one atomic load when the
    /// epoch has not moved, so calling it per batch is free on the warm
    /// path.
    pub fn repin(&mut self) -> bool {
        if !self.stale && self.shared.epoch.load(Ordering::Acquire) == self.arena.epoch {
            return false;
        }
        self.discard_operation();
        self.hints = HashMap::new();
        self.extract_memo = HashMap::new();
        self.extract_bytes = 0;
        self.report_bytes(0);
        self.arena = self.shared.current_arena();
        self.stale = false;
        true
    }

    /// Commits the overlay (one writer-mutex acquisition), writes the
    /// running operation's deferred memo entries into the arena, and
    /// rewrites its hints and `ids` to public ids. Returns false, with
    /// nothing changed, when the store has compacted past this worker's
    /// epoch.
    fn commit(&mut self, ids: &mut [TypeId]) -> bool {
        let Some(remap) = self.shared.commit(&self.arena, &self.overlay.slots) else {
            return false;
        };
        let public = |id: TypeId| id.overlay_index().map_or(id, |i| remap[i]);
        for id in ids {
            *id = public(*id);
        }
        let (shared, arena) = (&self.shared, &self.arena);
        let set = |id: TypeId, p: Polarity, nf: TypeId| shared.set_memo(arena, id, p, public(nf));
        for (&k, &nf) in &self.private_pos {
            set(k, Polarity::Pos, nf);
        }
        for (&k, &nf) in &self.private_neg {
            set(k, Polarity::Neg, nf);
        }
        let mut hints = Vec::new();
        for (slot, &id) in self.overlay.slots.iter().zip(&remap) {
            if let Some(nf) = slot.pos {
                set(id, Polarity::Pos, nf);
            }
            if let Some(nf) = slot.neg {
                set(id, Polarity::Neg, nf);
            }
            if let Some(name) = slot.hint {
                hints.push((id, name));
            }
        }
        for (id, name) in hints {
            self.note_arena_hint(id, name);
        }
        self.private_pos.clear();
        self.private_neg.clear();
        self.overlay.slots.clear();
        self.overlay.ids.clear();
        true
    }

    fn note_arena_hint(&mut self, id: TypeId, name: Symbol) {
        if let Entry::Vacant(e) = self.hints.entry(id) {
            e.insert(name);
            if let Some((_, bytes)) = self.extract_memo.remove(&id) {
                self.extract_bytes -= bytes;
            }
        }
    }

    /// Estimated bytes of this worker's private state.
    fn private_bytes(&self) -> u64 {
        let id = size_of::<TypeId>();
        let overlay = self.overlay.slots.capacity() * size_of::<OverlaySlot>()
            + self.overlay.ids.capacity() * (size_of::<TNode>() + id + MAP_ENTRY_OVERHEAD);
        let memo = (self.private_pos.capacity() + self.private_neg.capacity())
            * (2 * id + MAP_ENTRY_OVERHEAD);
        let hints = self.hints.capacity() * (id + size_of::<Symbol>() + MAP_ENTRY_OVERHEAD);
        let extract =
            self.extract_memo.capacity() * (id + size_of::<(Type, u64)>() + MAP_ENTRY_OVERHEAD);
        (overlay + memo + hints + extract) as u64 + self.extract_bytes
    }

    /// Replaces this worker's share of the store's `worker_bytes` (and
    /// of its pinned arena's) with `bytes`.
    fn report_bytes(&mut self, bytes: u64) {
        if bytes != self.reported_bytes {
            for z in [&self.shared.sizes.worker_bytes, &self.arena.worker_bytes] {
                z.fetch_add(bytes, Ordering::Relaxed);
                z.fetch_sub(self.reported_bytes, Ordering::Relaxed);
            }
            self.reported_bytes = bytes;
        }
    }

    /// Marks a batch boundary: folds the worker's hit/miss counters
    /// into the shared statistics and reports its private bytes. Takes
    /// no locks.
    pub fn publish(&mut self) {
        debug_assert!(
            self.stale || self.overlay.slots.is_empty(),
            "publish inside an unsettled operation"
        );
        let c = &self.shared.counters;
        for (local, shared) in [
            (&mut self.local_hits, &c.nrm_local_hits),
            (&mut self.shared_hits, &c.nrm_shared_hits),
            (&mut self.misses, &c.nrm_misses),
        ] {
            if *local > 0 {
                shared.fetch_add(std::mem::take(local), Ordering::Relaxed);
            }
        }
        self.report_bytes(self.private_bytes());
    }

    /// Memoized normal form of `id` (overlay slot → arena cell →
    /// private entry), with hit/miss accounting.
    fn memo_entry(&mut self, id: TypeId, polarity: Polarity) -> Option<TypeId> {
        let hit = match id.overlay_index() {
            Some(i) => {
                let slot = &self.overlay.slots[i];
                match polarity {
                    Polarity::Pos => slot.pos,
                    Polarity::Neg => slot.neg,
                }
            }
            None => {
                if let Some(nf) = self.arena.get(id.index()).memo(polarity) {
                    self.shared_hits += 1;
                    return Some(nf);
                }
                match polarity {
                    Polarity::Pos => self.private_pos.get(&id).copied(),
                    Polarity::Neg => self.private_neg.get(&id).copied(),
                }
            }
        };
        match hit {
            Some(_) => self.local_hits += 1,
            None => self.misses += 1,
        }
        hit
    }

    /// Records `nrm±(id) = nf`: in the arena when both ids are public
    /// and the worker is not stale, privately otherwise.
    fn memo_record(&mut self, id: TypeId, polarity: Polarity, nf: TypeId) {
        match id.overlay_index() {
            Some(i) => {
                let slot = &mut self.overlay.slots[i];
                match polarity {
                    Polarity::Pos => slot.pos = Some(nf),
                    Polarity::Neg => slot.neg = Some(nf),
                }
            }
            None if self.stale || nf.is_overlay() => {
                let private = match polarity {
                    Polarity::Pos => &mut self.private_pos,
                    Polarity::Neg => &mut self.private_neg,
                };
                private.insert(id, nf);
            }
            None => self.shared.set_memo(&self.arena, id, polarity, nf),
        }
    }

    // ---------------------------------------------------- public API

    /// Interns a boundary [`Type`]; the id is valid across all workers
    /// of this [`SharedStore`].
    pub fn intern(&mut self, t: &Type) -> TypeId {
        StoreOps::intern(self, t)
    }

    /// Memoized `nrm⁺` at the id level (arena memo cell → compute and
    /// record).
    pub fn nrm(&mut self, id: TypeId) -> TypeId {
        StoreOps::nrm(self, id)
    }

    /// Memoized `nrm⁻` at the id level.
    pub fn nrm_neg(&mut self, id: TypeId) -> TypeId {
        StoreOps::nrm_neg(self, id)
    }

    /// Decides `T ≡_A U` as id equality of memoized normal forms.
    pub fn equivalent_ids(&mut self, a: TypeId, b: TypeId) -> bool {
        StoreOps::equivalent_ids(self, a, b)
    }

    /// True when `id` is already recorded as its own normal form — the
    /// no-traversal fast path.
    pub fn is_normalized(&mut self, id: TypeId) -> bool {
        StoreOps::memo_pos_entry(self, id) == Some(id)
    }

    /// Simultaneous, capture-free substitution of ids for free variables.
    pub fn subst_free(&mut self, id: TypeId, map: &HashMap<Symbol, TypeId>) -> TypeId {
        StoreOps::subst_free(self, id, map)
    }

    /// β-instantiation of the outermost `∀` binder of `forall_id`.
    pub fn instantiate(&mut self, forall_id: TypeId, arg: TypeId) -> Option<TypeId> {
        StoreOps::instantiate(self, forall_id, arg)
    }

    /// Converts an id back to a boundary [`Type`] (binder names from
    /// this worker's first-intern hints where capture-free).
    pub fn extract(&self, id: TypeId) -> Type {
        StoreOps::extract(self, id)
    }

    /// [`WorkerStore::extract`] with a per-id memo.
    pub fn extract_cached(&mut self, id: TypeId) -> Type {
        if let Some((t, _)) = self.extract_memo.get(&id) {
            return t.clone();
        }
        let t = self.extract(id);
        let bytes = t.node_count() as u64 * TREE_NODE_BYTES;
        self.extract_bytes += bytes;
        self.extract_memo.insert(id, (t.clone(), bytes));
        t
    }

    /// Tree-node count of the type behind `id`.
    pub fn node_count(&self, id: TypeId) -> u64 {
        StoreOps::node_count(self, id)
    }

    /// Deep consistency check of the pinned epoch's arena, index and
    /// memo cells, for tests and fuzzing — **not** a hot-path function
    /// (it walks every slot and re-extracts every binder-closed id).
    /// Run it on a quiescent store: a sibling committing meanwhile may
    /// show up as a violation. Verifies, in order:
    ///
    /// 1. the index and the arena are inverse bijections;
    /// 2. the arena is topological (children strictly precede parents),
    ///    so ids can never form a cycle;
    /// 3. `needs_binders` agrees with a recomputation from the children;
    /// 4. every `nrm⁺` memo cell is *fixpoint-seeded*: its normal form
    ///    is recorded as its own normal form (`nrm(nrm(t)) = nrm(t)`
    ///    holds by memo lookup alone) and lies in the normal-form
    ///    grammar `Q` of Lemma 3;
    /// 5. `intern ∘ extract` is the identity on every binder-closed id.
    ///
    /// Returns a description of the first violation found.
    pub fn check_invariants(&mut self) -> Result<(), String> {
        let arena = Arc::clone(&self.arena);
        let len = arena.len();
        let entries = arena.index.len.load(Ordering::Relaxed);
        if entries != len {
            return Err(format!(
                "index holds {entries} entries for {len} arena slots"
            ));
        }
        for i in 0..len {
            let slot = arena.get(i);
            match arena.lookup(&slot.node) {
                Some(id) if id.index() == i => {}
                other => {
                    return Err(format!(
                        "hash-consing index disagrees with arena at t{i}: {other:?}"
                    ))
                }
            }
            let mut back_edge = None;
            for_each_child(&slot.node, |c| {
                if c.is_overlay() || c.index() >= i {
                    back_edge = Some(c);
                }
            });
            if let Some(child) = back_edge {
                return Err(format!("arena not topological: t{i} has child {child:?}"));
            }
            let needs = compute_needs(&slot.node, |c| arena.get(c.index()).needs);
            if slot.needs != needs {
                return Err(format!(
                    "needs_binders stale at t{i}: recorded {}, recomputed {needs}",
                    slot.needs,
                ));
            }
        }
        for i in 0..len {
            let Some(n) = arena.get(i).memo(Polarity::Pos) else {
                continue;
            };
            let again = arena.get(n.index()).memo(Polarity::Pos);
            if again != Some(n) {
                return Err(format!(
                    "nrm memo not fixpoint-seeded: nrm(t{i}) = {n:?} but nrm({n:?}) = {again:?}"
                ));
            }
            // Open subtrees (escaping de-Bruijn indices) cannot be
            // extracted standalone; their enclosing closed root is
            // checked instead.
            if arena.get(n.index()).needs == 0 {
                let tree = self.extract(n);
                if !crate::normalize::is_normal(&tree) {
                    return Err(format!(
                        "memoized normal form {n:?} not in grammar Q: {tree}"
                    ));
                }
            }
        }
        for i in 0..len {
            if arena.get(i).needs != 0 {
                continue;
            }
            let id = TypeId::from_index(i);
            let back = self.intern(&self.extract(id));
            if back != id {
                return Err(format!(
                    "intern∘extract not the identity: t{i} re-interned as {back:?}"
                ));
            }
        }
        Ok(())
    }
}

impl StoreOps for WorkerStore {
    fn node(&self, id: TypeId) -> &TNode {
        match id.overlay_index() {
            Some(i) => &self.overlay.slots[i].node,
            None => &self.arena.get(id.index()).node,
        }
    }

    fn mk_node(&mut self, node: TNode) -> TypeId {
        if let Some(&id) = self.overlay.ids.get(&node) {
            return id;
        }
        // A node with an overlay child cannot be in the arena yet.
        let mut overlay_child = false;
        for_each_child(&node, |c| overlay_child |= c.is_overlay());
        if !overlay_child {
            if let Some(id) = self.arena.lookup(&node) {
                return id;
            }
        }
        let needs = compute_needs(&node, |c| self.binders_needed(c));
        let id = TypeId::overlay(self.overlay.slots.len());
        self.overlay.ids.insert(node.clone(), id);
        self.overlay.slots.push(OverlaySlot {
            node,
            needs,
            pos: None,
            neg: None,
            hint: None,
        });
        id
    }

    fn binders_needed(&self, id: TypeId) -> u32 {
        match id.overlay_index() {
            Some(i) => self.overlay.slots[i].needs,
            None => self.arena.get(id.index()).needs,
        }
    }

    fn memo_pos_entry(&mut self, id: TypeId) -> Option<TypeId> {
        self.memo_entry(id, Polarity::Pos)
    }

    fn memo_pos_record(&mut self, id: TypeId, nf: TypeId) {
        self.memo_record(id, Polarity::Pos, nf);
    }

    fn memo_neg_entry(&mut self, id: TypeId) -> Option<TypeId> {
        self.memo_entry(id, Polarity::Neg)
    }

    fn memo_neg_record(&mut self, id: TypeId, nf: TypeId) {
        self.memo_record(id, Polarity::Neg, nf);
    }

    fn note_binder_hint(&mut self, id: TypeId, name: Symbol) {
        if !is_hint_worthy(name) {
            return;
        }
        match id.overlay_index() {
            Some(i) => {
                self.overlay.slots[i].hint.get_or_insert(name);
            }
            None => self.note_arena_hint(id, name),
        }
    }

    fn binder_hint(&self, id: TypeId) -> Option<Symbol> {
        match id.overlay_index() {
            Some(i) => self.overlay.slots[i].hint,
            None => self.hints.get(&id).copied(),
        }
    }

    fn abandon(&mut self) {
        // A stale worker's overlay also holds nodes of earlier,
        // settled operations; they stay.
        if !self.stale {
            self.discard_operation();
        }
    }

    fn settle(&mut self, ids: &mut [TypeId]) -> bool {
        if !self.stale && !self.overlay.slots.is_empty() && !self.commit(ids) {
            // The store compacted past this worker's epoch. The overlay
            // was built while siblings could still add to the index, so
            // it may duplicate arena nodes; run the operation again
            // against the retired arena's now-frozen index.
            self.stale = true;
            self.discard_operation();
            return false;
        }
        debug_assert!(
            self.stale || ids.iter().all(|id| !id.is_overlay()),
            "a non-stale worker returned an overlay id"
        );
        true
    }
}

impl Drop for WorkerStore {
    fn drop(&mut self) {
        if !self.stale && !self.overlay.slots.is_empty() {
            // An operation unwound before it settled.
            self.discard_operation();
        }
        self.publish();
        self.report_bytes(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::Kind;
    use crate::normalize::nrm_pos;
    use crate::spine::SEG0_BITS;

    fn samples() -> Vec<Type> {
        vec![
            Type::dual(Type::input(Type::neg(Type::int()), Type::var("a"))),
            Type::dual(Type::dual(Type::output(Type::int(), Type::EndIn))),
            Type::proto("ShPQ", vec![Type::neg(Type::neg(Type::neg(Type::int())))]),
            Type::forall(
                "s",
                Kind::Session,
                Type::arrow(
                    Type::dual(Type::output(Type::int(), Type::var("s"))),
                    Type::var("s"),
                ),
            ),
            Type::output(
                Type::proto("ShRep", vec![Type::int()]),
                Type::input(Type::bool(), Type::EndOut),
            ),
        ]
    }

    #[test]
    fn arena_locate_round_trips() {
        let mut flat = 0usize;
        for seg in 0..6usize {
            let size = 1usize << (seg as u32 + SEG0_BITS);
            for off in [0, 1, size / 2, size - 1] {
                let i = (1usize << (seg as u32 + SEG0_BITS)) - (1 << SEG0_BITS) + off;
                assert_eq!(Spine::<Slot>::locate(i), (seg, off), "index {i}");
            }
            flat += size;
        }
        assert!(flat > 0);
    }

    #[test]
    fn workers_agree_on_ids_and_verdicts() {
        let shared = SharedStore::new_arc();
        let mut w1 = shared.worker();
        let mut w2 = shared.worker();
        for t in samples() {
            let a = w1.intern(&t);
            let b = w2.intern(&t);
            assert_eq!(a, b, "workers disagree on the id of {t}");
            assert_eq!(w1.nrm(a), w2.nrm(b), "workers disagree on nrm of {t}");
        }
    }

    #[test]
    fn worker_nrm_agrees_with_tree_and_private_store() {
        let shared = SharedStore::new_arc();
        let mut w = shared.worker();
        let mut private = SharedStore::new_arc().worker();
        for t in samples() {
            let wid = w.intern(&t);
            let wn = w.nrm(wid);
            let via_tree = w.intern(&nrm_pos(&t));
            assert_eq!(wn, via_tree, "worker nrm disagrees with tree nrm on {t}");
            let pid = private.intern(&t);
            let pn = private.nrm(pid);
            assert!(
                w.extract(wn).alpha_eq(&private.extract(pn)),
                "worker and private normal forms differ on {t}"
            );
        }
    }

    #[test]
    fn published_memos_warm_other_workers() {
        let shared = SharedStore::new_arc();
        let t = Type::dual(Type::output(Type::int(), Type::var("warmShared")));
        let mut w1 = shared.worker();
        let id = w1.intern(&t);
        let n = w1.nrm(id);
        w1.publish();
        // A brand-new worker sees the published memo: its first nrm is a
        // shared memo hit, not a recomputation.
        let mut w2 = shared.worker();
        let before = shared.stats();
        assert_eq!(w2.nrm(id), n);
        w2.publish();
        let after = shared.stats();
        assert!(after.nrm_shared_hits > before.nrm_shared_hits);
        assert_eq!(after.nrm_misses, before.nrm_misses, "nothing recomputed");
    }

    #[test]
    fn cold_interns_reach_siblings_without_publish() {
        let shared = SharedStore::new_arc();
        let mut w1 = shared.worker();
        let mut older = shared.worker(); // attached before any intern
        for i in 0..256 {
            w1.intern(&Type::output(
                Type::int(),
                Type::var(format!("v{i}").as_str()),
            ));
        }
        assert_eq!(shared.stats().slow_path, 256, "one commit per cold intern");
        // Committed nodes are visible at once: neither an older sibling
        // nor a fresh worker needs a publish, a commit or a lock.
        let mut fresh = shared.worker();
        let before = shared.stats();
        for w in [&mut older, &mut fresh] {
            w.intern(&Type::output(Type::int(), Type::var("v0")));
        }
        let after = shared.stats();
        assert_eq!(after.slow_path, before.slow_path, "hit must be lock-free");
        assert_eq!(after.lock_acquisitions, before.lock_acquisitions);
    }

    /// A cold operation takes the writer mutex exactly once, however
    /// many nodes it creates.
    #[test]
    fn cold_operations_take_one_lock_whatever_their_size() {
        let costs: Vec<[u64; 4]> = [10, 1_000, 4_000]
            .into_iter()
            .map(|nodes| {
                let shared = SharedStore::new_arc();
                let mut w = shared.worker();
                // `Dual` over a spine of distinct payload variables: `nrm`
                // builds a whole new (dual) spine.
                let spine = (0..nodes / 2).fold(Type::EndOut, |t, i| {
                    Type::output(Type::var(format!("p{i}").as_str()), t)
                });
                let t = Type::dual(spine);
                let before = shared.stats();
                let id = w.intern(&t);
                let interned = shared.stats();
                let n = w.nrm(id);
                let normalized = shared.stats();
                assert!(w.extract(n).alpha_eq(&nrm_pos(&t)));
                [
                    interned.lock_acquisitions - before.lock_acquisitions,
                    interned.slow_path - before.slow_path,
                    normalized.lock_acquisitions - interned.lock_acquisitions,
                    normalized.slow_path - interned.slow_path,
                ]
            })
            .collect();
        assert_eq!(costs, vec![[1, 1, 1, 1]; 3], "locks/commits per operation");
    }

    #[test]
    fn extraction_round_trips_through_a_worker() {
        let shared = SharedStore::new_arc();
        let mut w = shared.worker();
        for t in samples() {
            let id = w.intern(&t);
            let back = w.extract(id);
            assert!(t.alpha_eq(&back), "{t} vs {back}");
            assert_eq!(w.intern(&back), id);
        }
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let shared = SharedStore::new_arc();
        let mut w = shared.worker();
        let t = Type::dual(Type::input(Type::int(), Type::EndIn));
        let u = Type::output(Type::int(), Type::dual(Type::EndIn));
        let (a, b) = (w.intern(&t), w.intern(&u));
        assert!(w.equivalent_ids(a, b));
        assert!(w.equivalent_ids(a, b), "second query must stay warm");
        w.publish();
        let stats = shared.stats();
        assert!(stats.nodes > 0);
        assert!(stats.nrm_misses > 0, "first contact computes");
        assert!(stats.nrm_hits > 0, "second contact hits the memo");
        assert!(stats.nrm_hit_rate() > 0.0 && stats.nrm_hit_rate() < 1.0);
        assert_eq!(stats.workers, 1);
        assert!(stats.slow_path > 0, "cold interning walks the slow path");
    }

    #[test]
    fn compaction_retains_roots_and_remaps_ids() {
        let shared = SharedStore::new_arc();
        let mut w = shared.worker();
        let keep = Type::dual(Type::output(Type::int(), Type::var("kept")));
        let drop_ = Type::proto("CpGone", vec![Type::neg(Type::bool())]);
        let keep_id = w.intern(&keep);
        let keep_nrm = w.nrm(keep_id);
        let drop_id = w.intern(&drop_);
        w.publish();
        let before = shared.stats();
        assert!(before.live_bytes() > 0, "accounting must track interns");

        let outcome = shared.compact(&[keep_id]);
        assert_eq!(outcome.epoch, 1);
        assert!(outcome.nodes_after < outcome.nodes_before);
        assert_eq!(shared.stats().epoch, 1);
        assert_eq!(shared.stats().compactions, 1);
        assert!(shared.stats().live_bytes() < before.live_bytes());
        assert!(outcome.remap.contains_key(&keep_id), "roots survive");
        assert!(
            outcome.remap.contains_key(&keep_nrm),
            "memoized normal forms of live ids survive"
        );
        assert!(
            !outcome.remap.contains_key(&drop_id),
            "unreachable ids are dropped"
        );

        // A fresh (new-epoch) worker re-interns the kept type at its
        // remapped id and finds its memo warm (no recomputation).
        let mut w2 = shared.worker();
        let misses_before = shared.stats().nrm_misses;
        let new_id = w2.intern(&keep);
        assert_eq!(new_id, outcome.remap[&keep_id]);
        assert_eq!(w2.nrm(new_id), outcome.remap[&keep_nrm]);
        w2.publish();
        assert_eq!(
            shared.stats().nrm_misses,
            misses_before,
            "compaction must keep the warm working set warm"
        );
    }

    /// Workers set memo cells without the writer mutex, so a cell of a
    /// live id may gain a value between compaction's mark and copy
    /// passes. The copy keeps it only if it was marked live.
    #[test]
    fn compaction_skips_memo_values_set_after_marking() {
        let shared = SharedStore::new_arc();
        let mut w = shared.worker();
        let t = Type::dual(Type::EndOut);
        let id = w.intern(&t);
        // The normal form's nodes exist, but no memo cell names them.
        let nf = w.intern(&nrm_pos(&t));
        let arena = Arc::clone(&w.arena);
        let live = arena.mark(&[id]);
        assert!(!live[nf.index()]);

        // A worker records nrm(id) lock-free between the two passes.
        let commits = shared.stats().slow_path;
        assert_eq!(w.nrm(id), nf);
        assert_eq!(shared.stats().slow_path, commits, "no node was created");
        assert_eq!(arena.get(id.index()).memo(Polarity::Pos), Some(nf));

        let rebuilt = arena.rebuild(&live);
        assert_eq!(rebuilt.remap[nf.index()], None);
        let new = rebuilt.remap[id.index()].expect("the root is live");
        assert_eq!(rebuilt.arena.get(new.index()).memo(Polarity::Pos), None);
        assert_eq!(rebuilt.memo_entries, 0);
    }

    /// A worker's private bytes leave the store's `live_bytes` when a
    /// repin drops them, and a compaction's `bytes_after` already
    /// leaves them out.
    #[test]
    fn repin_withdraws_private_bytes() {
        let shared = SharedStore::new_arc();
        let mut w = shared.worker();
        for t in samples() {
            let id = w.intern(&t);
            w.extract_cached(id);
        }
        w.publish();
        let private = shared.stats().worker_bytes;
        assert!(private > 0, "the extraction memo is counted");

        let outcome = shared.compact(&[]);
        let after = shared.stats();
        assert_eq!(outcome.bytes_after, after.arena_bytes + after.index_bytes);
        assert_eq!(after.worker_bytes, private, "not dropped yet");
        // A second compaction before the repin does not count the stale
        // worker's bytes as reclaimed again.
        let second = shared.compact(&[]);
        assert_eq!(second.bytes_before, outcome.bytes_after);
        assert!(w.repin());
        assert_eq!(shared.stats().worker_bytes, 0);
        assert_eq!(shared.live_bytes(), second.bytes_after);
    }

    #[test]
    fn compacting_an_empty_store_is_a_no_op_epoch_bump() {
        let shared = SharedStore::new_arc();
        let outcome = shared.compact(&[]);
        assert_eq!((outcome.nodes_before, outcome.nodes_after), (0, 0));
        assert_eq!(outcome.epoch, 1);
        assert!(outcome.remap.is_empty());
        // The store still works afterwards.
        let mut w = shared.worker();
        let id = w.intern(&Type::output(Type::int(), Type::EndIn));
        assert_eq!(w.nrm(id), w.nrm(id));
    }

    #[test]
    fn compacting_with_zero_roots_empties_the_store() {
        let shared = SharedStore::new_arc();
        let mut w = shared.worker();
        for t in samples() {
            let id = w.intern(&t);
            w.nrm(id);
        }
        w.publish();
        let outcome = shared.compact(&[]);
        assert!(outcome.nodes_before > 0);
        assert_eq!(outcome.nodes_after, 0);
        assert_eq!(shared.len(), 0);
        assert_eq!(shared.stats().arena_bytes, 0);
        // Everything can be re-interned from scratch.
        let mut w2 = shared.worker();
        for t in samples() {
            let id = w2.intern(&t);
            assert!(w2.equivalent_ids(id, id));
        }
    }

    #[test]
    fn back_to_back_compactions_are_stable() {
        let shared = SharedStore::new_arc();
        let mut w = shared.worker();
        let t = samples().remove(3);
        let id = w.intern(&t);
        let n = w.nrm(id);
        w.publish();
        let first = shared.compact(&[id]);
        let (id1, n1) = (first.remap[&id], first.remap[&n]);
        let second = shared.compact(&[id1]);
        assert_eq!(second.epoch, 2);
        assert_eq!(
            second.nodes_before, second.nodes_after,
            "an already-minimal store loses nothing"
        );
        let id2 = second.remap[&id1];
        let mut w2 = shared.worker();
        assert_eq!(w2.intern(&t), id2);
        assert_eq!(w2.nrm(id2), second.remap[&n1]);
        assert!(t.alpha_eq(&w2.extract(id2)), "extraction survives remap");
    }

    #[test]
    fn stale_workers_stay_correct_and_repin_adopts_the_new_epoch() {
        let shared = SharedStore::new_arc();
        let mut old = shared.worker();
        let t = Type::dual(Type::input(Type::int(), Type::var("stale")));
        let id = old.intern(&t);
        old.publish();
        shared.compact(&[]);

        // The pinned epoch keeps answering: extraction, nrm, fresh
        // (now local-private) interns all still work.
        assert!(t.alpha_eq(&old.extract(id)));
        let n = old.nrm(id);
        assert!(old.equivalent_ids(id, n));
        let fresh = Type::output(Type::bool(), Type::var("postCompact"));
        let fid = old.intern(&fresh);
        assert!(old.is_stale(), "cold intern after compaction goes stale");
        assert!(t.alpha_eq(&old.extract(id)));
        assert!(fresh.alpha_eq(&old.extract(fid)));
        let shared_len = shared.len();
        // Private interns never published: the shared store is untouched.
        old.publish();
        assert_eq!(shared.len(), shared_len);

        // Repin adopts the new epoch; ids must be re-interned.
        assert!(old.repin());
        assert!(!old.is_stale());
        let re = old.intern(&t);
        assert!(t.alpha_eq(&old.extract(re)));
        assert!(!old.repin(), "second repin without a compaction is a no-op");
    }

    /// Regression: a stale worker that has touched only a low-index
    /// prefix of its pinned arena must not mint private ids that
    /// numerically collide with shared indices it never looked at — the
    /// arena's memo cells are keyed by index and would answer with
    /// another type's normal form. Overlay ids carry a tag bit, so they
    /// cannot.
    #[test]
    fn stale_local_interns_never_collide_with_unsynced_shared_ids() {
        let shared = SharedStore::new_arc();
        // One worker fills the arena and publishes memos for everything.
        let mut w1 = shared.worker();
        for t in samples() {
            let id = w1.intern(&t);
            w1.nrm(id);
        }
        w1.publish();
        // A second worker pins the arena but touches only the first
        // sample's (low) ids.
        let mut w2 = shared.worker();
        let first = samples().remove(0);
        let low = w2.intern(&first);
        assert!(
            low.index() < shared.len() - 1,
            "the touched ids must be a strict prefix"
        );
        shared.compact(&[]);

        // A fresh intern goes stale and lands in the overlay; its normal
        // form must agree with the tree oracle, not with whatever memo
        // entry a colliding index would have held.
        let fresh = Type::dual(Type::output(
            Type::bool(),
            Type::input(Type::int(), Type::var("zCollide")),
        ));
        let fid = w2.intern(&fresh);
        assert!(w2.is_stale());
        let n = w2.nrm(fid);
        assert!(
            w2.extract(n).alpha_eq(&nrm_pos(&fresh)),
            "stale-worker normal form diverged from the tree oracle"
        );
        assert!(w2.equivalent_ids(fid, fid));
        assert!(!w2.equivalent_ids(fid, low), "distinct types stay distinct");
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let shared = SharedStore::new_arc();
        let samples = samples();
        let ids: Vec<Vec<TypeId>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let shared = &shared;
                    let samples = &samples;
                    scope.spawn(move || {
                        let mut w = shared.worker();
                        samples
                            .iter()
                            .map(|t| {
                                let id = w.intern(t);
                                let n = w.nrm(id);
                                assert!(w.equivalent_ids(id, n));
                                id
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for per_thread in &ids[1..] {
            assert_eq!(per_thread, &ids[0], "threads must agree on every id");
        }
    }
}
