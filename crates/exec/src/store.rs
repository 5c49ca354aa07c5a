//! PAO storage backends for the execution core.
//!
//! [`EngineCore`](crate::EngineCore) is generic over how partial aggregate
//! objects are stored and synchronized, behind the [`PaoStore`] trait:
//!
//! * [`LockedStore`] — one `RwLock` per PAO, the paper's "explicit
//!   synchronization" choice. Backs the single-threaded
//!   [`EngineCore`](crate::EngineCore) and the two-pool
//!   [`ParallelEngine`](crate::ParallelEngine), whose write pool lets any
//!   worker touch any PAO.
//! * [`ShardedStore`] — PAOs partitioned into shard slabs, each behind one
//!   `RwLock`. The [`ShardedEngine`](crate::ShardedEngine) worker that owns
//!   a shard locks its slab **once per batch** ([`ShardedStore::lock_shard`])
//!   and then mutates PAOs with plain indexed access — no per-PAO locking on
//!   the hot path. Concurrent readers take the slab read lock through the
//!   same [`PaoStore`] interface.

use eagr_graph::{Partition, ShardId};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::sync::atomic::{AtomicU64, Ordering};

/// Storage of one partial aggregate object per overlay node.
///
/// Implementations provide closure-scoped exclusive and shared access by
/// node index; how much state one lock covers (a single PAO, a whole shard)
/// is the implementation's choice.
pub trait PaoStore<P>: Send + Sync {
    /// Number of slots.
    fn len(&self) -> usize;

    /// Whether the store has zero slots.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Run `f` with exclusive access to slot `idx`.
    fn with_mut<R>(&self, idx: usize, f: impl FnOnce(&mut P) -> R) -> R;

    /// Run `f` with shared access to slot `idx`.
    fn with_read<R>(&self, idx: usize, f: impl FnOnce(&P) -> R) -> R;
}

/// Read-only PAO resolution, decoupled from [`PaoStore`]'s locking so read
/// evaluation can amortize lock acquisition: [`StoreReader`] reads through
/// a store's own locks, while a [`ShardSnapshot`] resolves the locked
/// shard's slots with plain indexed access and only touches peer locks for
/// foreign nodes. [`crate::EngineCore`]'s `read_via` / pull-evaluation
/// entry points are generic over this trait.
pub trait PaoReader<P> {
    /// Run `f` with shared access to the PAO at slot `idx`.
    fn with_pao<R>(&self, idx: usize, f: impl FnOnce(&P) -> R) -> R;
}

/// [`PaoReader`] adapter over any [`PaoStore`]: every access goes through
/// the store's own per-slot (or per-slab) read locks.
pub struct StoreReader<'a, S>(pub &'a S);

impl<P, S: PaoStore<P>> PaoReader<P> for StoreReader<'_, S> {
    #[inline]
    fn with_pao<R>(&self, idx: usize, f: impl FnOnce(&P) -> R) -> R {
        self.0.with_read(idx, f)
    }
}

/// One `RwLock` per PAO (the original execution-core layout).
pub struct LockedStore<P> {
    slots: Vec<RwLock<P>>,
}

impl<P: Send + Sync> LockedStore<P> {
    /// A store of `n` slots, each initialized by `init`.
    pub fn new(n: usize, mut init: impl FnMut() -> P) -> Self {
        Self {
            slots: (0..n).map(|_| RwLock::new(init())).collect(),
        }
    }
}

impl<P: Send + Sync> PaoStore<P> for LockedStore<P> {
    fn len(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn with_mut<R>(&self, idx: usize, f: impl FnOnce(&mut P) -> R) -> R {
        f(&mut self.slots[idx].write())
    }

    #[inline]
    fn with_read<R>(&self, idx: usize, f: impl FnOnce(&P) -> R) -> R {
        f(&self.slots[idx].read())
    }
}

/// Pack a `(shard, offset)` slot location into one atomic word so readers
/// can resolve it with a single load while migration republishes it.
#[inline]
fn encode_loc(shard: u32, off: u32) -> u64 {
    ((shard as u64) << 32) | off as u64
}

/// Sentinel shard marking a retired slot ([`ShardedStore::retire_slot`]):
/// the node left the overlay, so no slab holds state for it and any access
/// through the store is a bug (retired overlay nodes are unreachable — the
/// overlay's writer/reader lookups return `None` and retirement removed
/// every edge that could cascade into them).
const TOMBSTONE_SHARD: u32 = u32::MAX;

/// Inverse of [`encode_loc`].
#[inline]
fn decode_loc(packed: u64) -> (u32, u32) {
    ((packed >> 32) as u32, packed as u32)
}

/// Shard-partitioned PAO slabs: slot `idx` lives at `slab[shard_of(idx)]
/// [offset(idx)]`, and each slab is guarded by a single `RwLock`.
///
/// Slot locations are *migratable*: [`relocate`](Self::relocate) hands a
/// node's PAO to another slab and atomically republishes its location, the
/// storage half of live shard rebalancing. Each location is one atomic
/// word (`shard << 32 | offset`), so concurrent readers racing a migration
/// resolve either the old slot (which keeps the pre-handoff value — the
/// handoff *copies* rather than drains, so there is no window where a
/// reader can observe an emptied PAO) or the new slot with the same value.
pub struct ShardedStore<P> {
    /// Global index → packed (shard, offset-within-slab). See
    /// [`encode_loc`].
    loc: Vec<AtomicU64>,
    slabs: Vec<RwLock<Vec<P>>>,
    /// Slots abandoned by [`relocate`](Self::relocate) — kept, not
    /// reclaimed, so memory grows by one PAO per migration until a
    /// compaction pass exists (ROADMAP follow-up). Exposed via
    /// [`orphaned_slots`](Self::orphaned_slots) so long-lived engines
    /// under an automatic rebalance policy can watch the accumulation.
    orphans: AtomicU64,
}

impl<P: Send + Sync> ShardedStore<P> {
    /// Build shard slabs for the given node partition, initializing every
    /// slot with `init`.
    pub fn new(partition: &Partition, mut init: impl FnMut() -> P) -> Self {
        let mut sizes = vec![0u32; partition.shards];
        let loc: Vec<AtomicU64> = partition
            .of
            .iter()
            .map(|s| {
                let off = sizes[s.idx()];
                sizes[s.idx()] += 1;
                AtomicU64::new(encode_loc(s.0, off))
            })
            .collect();
        let slabs = sizes
            .iter()
            .map(|&sz| RwLock::named((0..sz).map(|_| init()).collect(), "slab"))
            .collect();
        Self {
            loc,
            slabs,
            orphans: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.slabs.len()
    }

    /// Current packed location of global slot `idx`.
    #[inline]
    fn loc_of(&self, idx: usize) -> (u32, u32) {
        decode_loc(self.loc[idx].load(Ordering::Acquire))
    }

    /// Shard owning global slot `idx`.
    #[inline]
    pub fn shard_of(&self, idx: usize) -> ShardId {
        ShardId(self.loc_of(idx).0)
    }

    /// Migrate global slot `idx` into `dest`'s slab, installing `value` as
    /// its PAO (the handed-off state extracted by the old owner) at a
    /// fresh offset, then republish the location.
    ///
    /// Publication order is the correctness argument: the value is in
    /// place under the destination slab's write lock *before* the location
    /// flips (`Release`), so any reader that observes the new location
    /// (`Acquire`) finds the migrated state. Readers still holding the old
    /// location read the old slot, which retains the pre-handoff value —
    /// the slot becomes an orphan rather than being cleared, trading one
    /// PAO of memory per migration for a tear-free handoff under
    /// concurrent relaxed reads. Orphans persist until the next
    /// [`compact`](Self::compact) pass repacks the slabs; readers that
    /// loaded a stale location revalidate it under the slab lock (see
    /// [`PaoStore::with_read`] for this type), so reuse is safe.
    pub fn relocate(&self, idx: usize, dest: ShardId, value: P) {
        let mut slab = self.slabs[dest.idx()].write();
        let off = slab.len() as u32;
        slab.push(value);
        drop(slab);
        self.loc[idx].store(encode_loc(dest.0, off), Ordering::Release);
        self.orphans.fetch_add(1, Ordering::Relaxed);
    }

    /// Append a slot for a fresh node (the next global index) to `shard`'s
    /// slab — how a topology epoch grows the store in place.
    pub fn push_slot(&mut self, shard: ShardId, value: P) {
        let slab = self.slabs[shard.idx()].get_mut();
        let off = slab.len() as u32;
        slab.push(value);
        self.loc.push(AtomicU64::new(encode_loc(shard.0, off)));
    }

    /// Append a retired slot (the next global index): a tombstone from the
    /// start, holding no slab slot and orphaning nothing — for ids a
    /// topology epoch creates and retires within one run.
    pub fn push_tombstone(&mut self) {
        self.loc
            .push(AtomicU64::new(encode_loc(TOMBSTONE_SHARD, 0)));
    }

    /// Slots orphaned by migrations since the last compaction (one per
    /// [`relocate`](Self::relocate) call): the store's memory overhead
    /// beyond one PAO per node, in PAOs. [`compact`](Self::compact)
    /// returns this to zero.
    pub fn orphaned_slots(&self) -> u64 {
        self.orphans.load(Ordering::Relaxed)
    }

    /// Retire global slot `idx`: its overlay node left the graph, so its
    /// slab slot is abandoned into the same orphan accounting migrations
    /// use and reclaimed by the next [`compact`](Self::compact) pass. The
    /// location is replaced with a tombstone; any subsequent access through
    /// the store panics (retired overlay nodes are unreachable, so an
    /// access is a routing bug, not a race). Idempotent.
    pub fn retire_slot(&self, idx: usize) {
        let packed = self.loc[idx].swap(encode_loc(TOMBSTONE_SHARD, 0), Ordering::AcqRel);
        if decode_loc(packed).0 != TOMBSTONE_SHARD {
            self.orphans.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether global slot `idx` has been retired
    /// ([`retire_slot`](Self::retire_slot)).
    pub fn is_retired_slot(&self, idx: usize) -> bool {
        self.loc_of(idx).0 == TOMBSTONE_SHARD
    }

    /// Repack every slab in place, dropping orphaned slots and
    /// republishing the surviving slots' locations. Returns the number of
    /// slots reclaimed.
    ///
    /// Each slab is compacted under its own write lock: live slots are
    /// swapped down over orphans, their locations re-stored *before* the
    /// lock is released, and the tail truncated. A concurrent relaxed
    /// reader that loaded a pre-compaction location blocks on that slab
    /// lock and then revalidates the location (the retry loop in this
    /// type's [`PaoStore::with_read`]/[`PaoStore::with_mut`]), so it can
    /// never index a moved or truncated slot. Slots are only ever
    /// reassigned under the slab write lock, which is what makes the
    /// revalidation sound.
    ///
    /// Callers must ensure no [`ShardGuard`] or [`ShardSnapshot`] is held
    /// across the call (the sharded engine runs compaction under its
    /// exclusive epoch gate with all workers drained), otherwise this
    /// deadlocks on the slab lock.
    pub fn compact(&self) -> u64 {
        // One pass over the location table groups live slots by shard;
        // tombstoned slots ([`retire_slot`](Self::retire_slot)) point at no
        // slab, so the slab slots they abandoned simply never make the live
        // list and get swept with the migration orphans below.
        let mut live: Vec<Vec<(u32, usize)>> = vec![Vec::new(); self.slabs.len()];
        for (idx, loc) in self.loc.iter().enumerate() {
            let (shard, off) = decode_loc(loc.load(Ordering::Acquire));
            if shard == TOMBSTONE_SHARD {
                continue;
            }
            live[shard as usize].push((off, idx));
        }
        let mut reclaimed = 0u64;
        for (shard, mut slots) in live.into_iter().enumerate() {
            let mut slab = self.slabs[shard].write();
            slots.sort_unstable();
            let mut w = 0u32;
            for (off, idx) in slots {
                if off != w {
                    slab.swap(w as usize, off as usize);
                    self.loc[idx].store(encode_loc(shard as u32, w), Ordering::Release);
                }
                w += 1;
            }
            reclaimed += (slab.len() - w as usize) as u64;
            slab.truncate(w as usize);
        }
        let mut seen = self.orphans.load(Ordering::Relaxed);
        loop {
            let next = seen.saturating_sub(reclaimed);
            match self.orphans.compare_exchange_weak(
                seen,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(cur) => seen = cur,
            }
        }
        reclaimed
    }

    /// Take the write lock of one shard's slab for the duration of a batch.
    /// The returned guard resolves *global* node indexes; it panics if
    /// asked for a node outside the locked shard.
    pub fn lock_shard(&self, shard: ShardId) -> ShardGuard<'_, P> {
        ShardGuard {
            slab: self.slabs[shard.idx()].write(),
            loc: &self.loc,
            shard: shard.0,
        }
    }

    /// Take the read lock of one shard's slab for the duration of a read
    /// batch. The snapshot resolves the locked shard's nodes with plain
    /// indexed access — one lock per batch instead of one per read — and
    /// falls through to per-slab read locks for foreign nodes (a
    /// cross-shard pull subtree).
    pub fn snapshot_shard(&self, shard: ShardId) -> ShardSnapshot<'_, P> {
        ShardSnapshot {
            slab: self.slabs[shard.idx()].read(),
            store: self,
            shard: shard.0,
        }
    }
}

/// Shared access to one shard's PAO slab (see
/// [`ShardedStore::snapshot_shard`]), resolving *global* node indexes:
/// locked-shard slots read lock-free through the held guard, foreign slots
/// through their own slab's read lock.
pub struct ShardSnapshot<'a, P> {
    slab: RwLockReadGuard<'a, Vec<P>>,
    store: &'a ShardedStore<P>,
    shard: u32,
}

impl<P: Send + Sync> PaoReader<P> for ShardSnapshot<'_, P> {
    #[inline]
    fn with_pao<R>(&self, idx: usize, f: impl FnOnce(&P) -> R) -> R {
        let (shard, off) = self.store.loc_of(idx);
        if shard == self.shard {
            f(&self.slab[off as usize])
        } else {
            self.store.with_read(idx, f)
        }
    }
}

/// Exclusive access to one shard's PAO slab, indexed by global node index.
pub struct ShardGuard<'a, P> {
    slab: RwLockWriteGuard<'a, Vec<P>>,
    loc: &'a [AtomicU64],
    shard: u32,
}

impl<P> ShardGuard<'_, P> {
    /// Mutable access to the PAO at global index `idx`.
    ///
    /// # Panics
    /// Panics if `idx` does not belong to the locked shard.
    #[inline]
    pub fn get_mut(&mut self, idx: usize) -> &mut P {
        let (shard, off) = decode_loc(self.loc[idx].load(Ordering::Acquire));
        assert_eq!(
            shard, self.shard,
            "node {idx} not owned by shard {}",
            self.shard
        );
        &mut self.slab[off as usize]
    }
}

impl<P: Send + Sync> PaoStore<P> for ShardedStore<P> {
    fn len(&self) -> usize {
        self.loc.len()
    }

    // Both accessors revalidate the location after acquiring the slab
    // lock: a migration or compaction may republish the slot between the
    // load and the lock, and compaction reuses offsets, so indexing with a
    // stale location would read the wrong PAO (or past the truncated
    // tail). Locations only change under the owning slab's write lock, so
    // a location that still matches once the lock is held is current.
    #[inline]
    fn with_mut<R>(&self, idx: usize, f: impl FnOnce(&mut P) -> R) -> R {
        loop {
            let packed = self.loc[idx].load(Ordering::Acquire);
            let (shard, off) = decode_loc(packed);
            let mut slab = self.slabs[shard as usize].write();
            if self.loc[idx].load(Ordering::Acquire) == packed {
                return f(&mut slab[off as usize]);
            }
        }
    }

    // Callers may already hold a *shared* slab lock: `ShardSnapshot::with_pao`
    // resolves foreign (cross-shard pull) slots through here while its own
    // shard's read guard is live. That nesting is shared-shared at the same
    // rank, which the lock-order rail's SHARED_REENTRANT exception permits.
    #[inline]
    // lint: holds(slab)
    fn with_read<R>(&self, idx: usize, f: impl FnOnce(&P) -> R) -> R {
        loop {
            let packed = self.loc[idx].load(Ordering::Acquire);
            let (shard, off) = decode_loc(packed);
            let slab = self.slabs[shard as usize].read();
            if self.loc[idx].load(Ordering::Acquire) == packed {
                return f(&slab[off as usize]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagr_graph::Partitioner;

    #[test]
    fn locked_store_round_trips() {
        let store = LockedStore::new(4, || 0i64);
        assert_eq!(store.len(), 4);
        assert!(!store.is_empty());
        store.with_mut(2, |p| *p = 7);
        assert_eq!(store.with_read(2, |p| *p), 7);
        assert_eq!(store.with_read(0, |p| *p), 0);
    }

    #[test]
    fn sharded_store_places_every_slot() {
        let part = Partitioner::hash(3).partition(100);
        let store = ShardedStore::new(&part, || 0i64);
        assert_eq!(store.len(), 100);
        assert_eq!(store.shard_count(), 3);
        for i in 0..100 {
            store.with_mut(i, |p| *p = i as i64);
        }
        for i in 0..100 {
            assert_eq!(store.with_read(i, |p| *p), i as i64);
            assert_eq!(store.shard_of(i), part.shard_of(i));
        }
    }

    #[test]
    fn shard_guard_resolves_global_indexes() {
        let part = Partitioner::chunked(2, 4).partition(16);
        let store = ShardedStore::new(&part, || 0i64);
        let owned: Vec<usize> = (0..16)
            .filter(|&i| part.shard_of(i) == ShardId(0))
            .collect();
        {
            let mut g = store.lock_shard(ShardId(0));
            for &i in &owned {
                *g.get_mut(i) = 40 + i as i64;
            }
        }
        for &i in &owned {
            assert_eq!(store.with_read(i, |p| *p), 40 + i as i64);
        }
    }

    #[test]
    fn shard_snapshot_resolves_local_and_foreign_nodes() {
        let part = Partitioner::chunked(2, 4).partition(16);
        let store = ShardedStore::new(&part, || 0i64);
        for i in 0..16 {
            store.with_mut(i, |p| *p = 100 + i as i64);
        }
        let snap = store.snapshot_shard(ShardId(0));
        for i in 0..16 {
            // Local slots read through the held guard, foreign ones through
            // their own slab lock — same answers either way.
            assert_eq!(snap.with_pao(i, |p| *p), 100 + i as i64);
        }
    }

    #[test]
    fn store_reader_matches_with_read() {
        let store = LockedStore::new(3, || 0i64);
        store.with_mut(1, |p| *p = 9);
        assert_eq!(StoreReader(&store).with_pao(1, |p| *p), 9);
    }

    #[test]
    fn relocate_moves_state_and_republishes_location() {
        let part = Partitioner::chunked(2, 4).partition(8);
        let store = ShardedStore::new(&part, || 0i64);
        for i in 0..8 {
            store.with_mut(i, |p| *p = 10 + i as i64);
        }
        // Hand node 1 (shard 0 under chunk 4 / 2 shards) to shard 1 with
        // its current value, the way the migration protocol does.
        let v = store.with_read(1, |p| *p);
        assert_eq!(store.shard_of(1), ShardId(0));
        store.relocate(1, ShardId(1), v);
        assert_eq!(store.shard_of(1), ShardId(1));
        assert_eq!(store.with_read(1, |p| *p), 11);
        // The new owner's guard now resolves it; writes land in the new slab.
        {
            let mut g = store.lock_shard(ShardId(1));
            *g.get_mut(1) += 100;
        }
        assert_eq!(store.with_read(1, |p| *p), 111);
        // Snapshots from both shards agree on every node.
        for shard in [ShardId(0), ShardId(1)] {
            let snap = store.snapshot_shard(shard);
            assert_eq!(snap.with_pao(1, |p| *p), 111);
            assert_eq!(snap.with_pao(0, |p| *p), 10);
        }
    }

    #[test]
    fn compact_reclaims_orphans_and_preserves_values() {
        let part = Partitioner::chunked(2, 4).partition(8);
        let store = ShardedStore::new(&part, || 0i64);
        for i in 0..8 {
            store.with_mut(i, |p| *p = 10 + i as i64);
        }
        // Shuffle ownership around: 3 relocations, 3 orphans.
        store.relocate(1, ShardId(1), store.with_read(1, |p| *p));
        store.relocate(5, ShardId(0), store.with_read(5, |p| *p));
        store.relocate(1, ShardId(0), store.with_read(1, |p| *p));
        assert_eq!(store.orphaned_slots(), 3);
        assert_eq!(store.compact(), 3);
        assert_eq!(store.orphaned_slots(), 0);
        for i in 0..8 {
            assert_eq!(store.with_read(i, |p| *p), 10 + i as i64);
        }
        // Slabs hold exactly one slot per live node.
        let total: usize = (0..store.shard_count())
            .map(|s| store.slabs[s].read().len())
            .sum();
        assert_eq!(total, store.len());
        // Writes through the new owners still land.
        {
            let mut g = store.lock_shard(ShardId(0));
            *g.get_mut(1) += 100;
            *g.get_mut(5) += 100;
        }
        assert_eq!(store.with_read(1, |p| *p), 111);
        assert_eq!(store.with_read(5, |p| *p), 115);
        // Idempotent with nothing to reclaim.
        assert_eq!(store.compact(), 0);
    }

    #[test]
    fn retire_slot_orphans_into_compaction() {
        let part = Partitioner::chunked(2, 4).partition(8);
        let store = ShardedStore::new(&part, || 0i64);
        for i in 0..8 {
            store.with_mut(i, |p| *p = 10 + i as i64);
        }
        store.retire_slot(3);
        store.retire_slot(6);
        store.retire_slot(3); // idempotent
        assert!(store.is_retired_slot(3));
        assert!(!store.is_retired_slot(0));
        assert_eq!(store.orphaned_slots(), 2);
        assert_eq!(store.compact(), 2);
        assert_eq!(store.orphaned_slots(), 0);
        // Live slots keep their values and stay writable.
        for i in [0, 1, 2, 4, 5, 7] {
            assert_eq!(store.with_read(i, |p| *p), 10 + i as i64);
        }
        let total: usize = (0..store.shard_count())
            .map(|s| store.slabs[s].read().len())
            .sum();
        assert_eq!(total, 6, "retired slots reclaimed from the slabs");
    }

    #[test]
    fn push_slot_and_tombstone_grow_the_store_in_place() {
        let part = Partitioner::chunked(2, 4).partition(8);
        let mut store = ShardedStore::new(&part, || 0i64);
        store.with_mut(5, |p| *p = 55);
        store.push_slot(ShardId(1), 80);
        store.push_tombstone();
        store.push_slot(ShardId(0), 100);
        assert_eq!(store.len(), 11);
        assert_eq!(store.shard_of(8), ShardId(1));
        assert_eq!(store.with_read(8, |p| *p), 80);
        assert!(store.is_retired_slot(9));
        assert_eq!(store.with_read(10, |p| *p), 100);
        assert_eq!(store.with_read(5, |p| *p), 55, "existing slots untouched");
        assert_eq!(
            store.orphaned_slots(),
            0,
            "a born-retired id orphans nothing"
        );
        {
            let mut g = store.lock_shard(ShardId(1));
            *g.get_mut(8) += 1;
        }
        assert_eq!(store.with_read(8, |p| *p), 81);
        assert_eq!(store.compact(), 0);
    }

    #[test]
    #[should_panic(expected = "not owned by shard")]
    fn old_owner_guard_rejects_node_after_relocate() {
        let part = Partitioner::chunked(2, 4).partition(8);
        let store = ShardedStore::new(&part, || 0i64);
        store.relocate(1, ShardId(1), 7);
        let mut g = store.lock_shard(ShardId(0));
        let _ = g.get_mut(1);
    }

    #[test]
    #[should_panic(expected = "not owned by shard")]
    fn shard_guard_rejects_foreign_nodes() {
        let part = Partitioner::chunked(2, 1).partition(4);
        let store = ShardedStore::new(&part, || 0i64);
        let mut g = store.lock_shard(ShardId(0));
        // Index 1 belongs to shard 1 under chunk_size 1 / 2 shards.
        let _ = g.get_mut(1);
    }
}
