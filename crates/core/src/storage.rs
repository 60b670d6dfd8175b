//! Node-local storage: the volatile hashtable, per-memgest metadata
//! hashtables, and data stores (replicated value maps and SRS heaps).
//!
//! Layout follows Section 5.1/Figure 4: a coordinator keeps one
//! *volatile hashtable* mapping each of its keys to the list of
//! `(version, memgestID)` pairs, plus one *metadata hashtable* per
//! memgest mapping `(key, version)` to the object entry (length,
//! location, commit flag, pending requests). The volatile table is never
//! replicated — it is reconstructed from the memgests' metadata tables
//! after failures.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use ring_erasure::SrsLayout;
use ring_net::{MemoryRegion, NodeId, Payload};

use crate::proto::ClientTag;
use crate::types::{Key, MemgestDescriptor, MemgestId, Version};

/// A request parked until its target version commits (Figure 5).
#[derive(Debug, Clone, PartialEq)]
pub enum Waiter {
    /// A get waiting for the pinned version to commit.
    Get(ClientTag),
    /// A move waiting for the source version to commit.
    Move {
        /// The requesting client.
        client: ClientTag,
        /// Destination memgest.
        dst: MemgestId,
    },
    /// A delete waiting for the uncommitted tombstone ahead of it.
    Delete(ClientTag),
}

impl Waiter {
    /// The client the parked request must eventually answer.
    pub fn client(&self) -> ClientTag {
        let (Waiter::Get(client) | Waiter::Move { client, .. } | Waiter::Delete(client)) = self;
        *client
    }
}

/// Metadata of one `(key, version)` instance inside a memgest.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectEntry {
    /// Value length in bytes.
    pub len: usize,
    /// Heap address for SRS memgests; `usize::MAX` for replicated ones.
    pub addr: usize,
    /// True once the redundancy requirement is satisfied.
    pub committed: bool,
    /// True for delete markers.
    pub tombstone: bool,
    /// True if the value bytes are locally readable (false right after
    /// metadata-only recovery, until fetched or decoded on demand).
    pub data_present: bool,
    /// True while an on-demand data recovery for this entry is in
    /// flight.
    pub fetching: bool,
    /// Recovery attempts so far (rotates over redundancy targets).
    pub fetch_attempts: u8,
    /// Requests parked on this entry.
    pub waiters: Vec<Waiter>,
}

impl ObjectEntry {
    /// A fresh, uncommitted, locally present entry.
    pub fn new(len: usize, addr: usize, tombstone: bool) -> ObjectEntry {
        ObjectEntry {
            len,
            addr,
            committed: false,
            tombstone,
            data_present: true,
            fetching: false,
            fetch_attempts: 0,
            waiters: Vec::new(),
        }
    }

    /// An entry recovered from a metadata replica: committed (write-ahead
    /// guarantees only intended writes are visible on redundancy) but
    /// without local data — unless there is none to lose: a zero-length
    /// value is present as it stands and never fetched.
    pub fn recovered(len: usize, addr: usize, tombstone: bool) -> ObjectEntry {
        ObjectEntry {
            len,
            addr,
            committed: true,
            tombstone,
            data_present: len == 0,
            fetching: false,
            fetch_attempts: 0,
            waiters: Vec::new(),
        }
    }
}

/// The hasher of every per-key table (metadata, volatile index, REP
/// value stores): an FxHash-style multiply-rotate over 64-bit words.
/// Keys are integers, so one multiply mixes enough; the final rotate
/// brings the product's well-mixed high bits down to the bucket index.
/// Fixed and unseeded: table layout, and so iteration order, is the
/// same in every process. The price is no defence against keys chosen
/// to collide (hash flooding); clients here pick keys, not adversaries.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`FxHasher`]s for the per-key `HashMap`s.
pub type FxBuild = BuildHasherDefault<FxHasher>;

/// The per-memgest metadata hashtable: `(key, version) -> entry`. One
/// hash probe finds a key; its versions (rarely more than two: the
/// committed one and a put in flight) sit in a short list sorted by
/// version.
#[derive(Debug, Default)]
pub struct MetaTable {
    by_key: HashMap<Key, Vec<(Version, ObjectEntry)>, FxBuild>,
}

/// Where `version` sits (or would sit) in a key's sorted version list.
fn position(versions: &[(Version, ObjectEntry)], version: Version) -> Result<usize, usize> {
    versions.binary_search_by_key(&version, |&(v, _)| v)
}

impl MetaTable {
    /// Creates an empty table.
    pub fn new() -> MetaTable {
        MetaTable::default()
    }

    /// Inserts (or replaces) an entry.
    pub fn insert(&mut self, key: Key, version: Version, entry: ObjectEntry) {
        let versions = self.by_key.entry(key).or_default();
        match position(versions, version) {
            Ok(i) => versions[i].1 = entry,
            Err(i) => versions.insert(i, (version, entry)),
        }
    }

    /// Looks an entry up.
    pub fn get(&self, key: Key, version: Version) -> Option<&ObjectEntry> {
        let versions = self.by_key.get(&key)?;
        let i = position(versions, version).ok()?;
        Some(&versions[i].1)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, key: Key, version: Version) -> Option<&mut ObjectEntry> {
        let versions = self.by_key.get_mut(&key)?;
        let i = position(versions, version).ok()?;
        Some(&mut versions[i].1)
    }

    /// The highest version recorded for a key in this memgest.
    pub fn highest(&self, key: Key) -> Option<(Version, &ObjectEntry)> {
        self.by_key.get(&key)?.last().map(|(v, e)| (*v, e))
    }

    /// Removes a specific version. Returns the entry if present.
    pub fn remove(&mut self, key: Key, version: Version) -> Option<ObjectEntry> {
        let Entry::Occupied(mut slot) = self.by_key.entry(key) else {
            return None;
        };
        let i = position(slot.get(), version).ok()?;
        let (_, out) = slot.get_mut().remove(i);
        if slot.get().is_empty() {
            slot.remove();
        }
        Some(out)
    }

    /// Removes every version strictly below `below`; returns the removed
    /// `(version, entry)` pairs.
    pub fn remove_below(&mut self, key: Key, below: Version) -> Vec<(Version, ObjectEntry)> {
        let Entry::Occupied(mut slot) = self.by_key.entry(key) else {
            return Vec::new();
        };
        let cut = slot.get().partition_point(|&(v, _)| v < below);
        let out: Vec<_> = slot.get_mut().drain(..cut).collect();
        if slot.get().is_empty() {
            slot.remove();
        }
        out
    }

    /// Iterates over all `(key, version, entry)` triples in `(key,
    /// version)` order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, Version, &ObjectEntry)> {
        // ring-lint: allow(hashmap-iteration) -- collected, then sorted by key
        let mut keys: Vec<_> = self.by_key.iter().collect();
        keys.sort_unstable_by_key(|&(&k, _)| k);
        keys.into_iter()
            .flat_map(|(&k, vs)| vs.iter().map(move |(v, e)| (k, *v, e)))
    }

    /// Iterates mutably over all `(key, version, entry)` triples in
    /// `(key, version)` order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (Key, Version, &mut ObjectEntry)> {
        // ring-lint: allow(hashmap-iteration) -- collected, then sorted by key
        let mut keys: Vec<_> = self.by_key.iter_mut().collect();
        keys.sort_unstable_by_key(|(&k, _)| k);
        keys.into_iter()
            .flat_map(|(&k, vs)| vs.iter_mut().map(move |(v, e)| (k, *v, e)))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        // ring-lint: allow(hashmap-iteration) -- order-insensitive count
        self.by_key.values().map(Vec::len).sum()
    }

    /// True if the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Approximate in-memory footprint in bytes (for the Figure 12
    /// metadata-size sweep).
    pub fn approx_bytes(&self) -> usize {
        // Key + version + entry fields, ignoring allocator overhead.
        self.len() * (8 + 8 + 8 + 8 + 4)
    }
}

/// The volatile hashtable: `key -> [(version, memgestID)]`, newest
/// first. Only committed versions appear here plus the in-flight
/// highest (needed for version assignment).
#[derive(Debug, Default)]
pub struct VolatileTable {
    index: HashMap<Key, Vec<(Version, MemgestId)>, FxBuild>,
}

impl VolatileTable {
    /// Creates an empty table.
    pub fn new() -> VolatileTable {
        VolatileTable::default()
    }

    /// Records a `(version, memgest)` instance for a key (idempotent).
    pub fn record(&mut self, key: Key, version: Version, memgest: MemgestId) {
        let list = self.index.entry(key).or_default();
        match list.binary_search_by(|(v, _)| version.cmp(v)) {
            Ok(pos) => list[pos] = (version, memgest),
            Err(pos) => list.insert(pos, (version, memgest)),
        }
    }

    /// The highest version of a key and the memgest holding it.
    pub fn highest(&self, key: Key) -> Option<(Version, MemgestId)> {
        self.index.get(&key)?.first().copied()
    }

    /// Removes one version of a key.
    pub fn remove(&mut self, key: Key, version: Version) {
        if let Some(list) = self.index.get_mut(&key) {
            list.retain(|&(v, _)| v != version);
            if list.is_empty() {
                self.index.remove(&key);
            }
        }
    }

    /// Removes every version strictly below `below`.
    pub fn remove_below(&mut self, key: Key, below: Version) {
        if let Some(list) = self.index.get_mut(&key) {
            list.retain(|&(v, _)| v >= below);
            if list.is_empty() {
                self.index.remove(&key);
            }
        }
    }

    /// All versions currently known for a key, newest first.
    pub fn versions(&self, key: Key) -> &[(Version, MemgestId)] {
        self.index.get(&key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Number of keys.
    pub fn keys(&self) -> usize {
        self.index.len()
    }

    /// Clears the table (used before a rebuild).
    pub fn clear(&mut self) {
        self.index.clear();
    }
}

/// A bump-allocated heap backing an SRS memgest on a data node.
///
/// Allocations are append-only: every `(key, version)` gets a fresh
/// range, so parity deltas are always computed against known-zero or
/// previously-written bytes and old ranges are never mutated — the
/// invariant that keeps cross-node parity consistent without
/// distributed locking.
#[derive(Debug)]
pub struct Heap {
    region: MemoryRegion,
    next: usize,
}

impl Heap {
    /// Creates a heap with the given initial capacity.
    pub fn new(capacity: usize) -> Heap {
        Heap {
            region: MemoryRegion::new(capacity),
            next: 0,
        }
    }

    /// The region backing the heap.
    pub fn region(&self) -> &MemoryRegion {
        &self.region
    }

    /// Current allocation frontier.
    pub fn len(&self) -> usize {
        self.next
    }

    /// True if nothing has been allocated.
    pub fn is_empty(&self) -> bool {
        self.next == 0
    }

    /// Allocates `len` bytes, growing the region if needed. Returns the
    /// address.
    pub fn alloc(&mut self, len: usize) -> usize {
        let addr = self.next;
        self.next += len;
        if self.next > self.region.len() {
            self.region.grow(self.next.next_power_of_two().max(4096));
        }
        addr
    }

    /// Sets the frontier after metadata recovery (new allocations must
    /// not collide with recovered ranges).
    pub fn reserve_upto(&mut self, addr: usize) {
        if addr > self.next {
            self.next = addr;
            if self.next > self.region.len() {
                self.region.grow(self.next.next_power_of_two().max(4096));
            }
        }
    }

    /// Writes bytes at `addr`, returning the XOR delta against the old
    /// contents.
    ///
    /// # Panics
    ///
    /// Panics if the range was never allocated.
    pub fn write_delta(&mut self, addr: usize, bytes: &[u8]) -> Vec<u8> {
        assert!(addr + bytes.len() <= self.next, "write beyond frontier");
        // One allocation: the old bytes become the delta buffer, then a
        // word-wide XOR folds the new bytes in.
        let mut delta = self
            .region
            .read(addr, bytes.len())
            .expect("allocated range is in bounds");
        self.region
            .write(addr, bytes)
            .expect("allocated range is in bounds");
        ring_gf::region::xor_into(&mut delta, bytes);
        delta
    }

    /// Writes bytes at `addr` without computing a delta: into fresh
    /// (zeroed) space, or over a hole being recovered.
    ///
    /// # Panics
    ///
    /// Panics if the range lies beyond the region.
    pub fn write(&mut self, addr: usize, bytes: &[u8]) {
        self.region
            .write(addr, bytes)
            .expect("allocated range is in bounds");
    }

    /// Reads `len` bytes at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range was never allocated.
    pub fn read(&self, addr: usize, len: usize) -> Vec<u8> {
        assert!(addr + len <= self.next, "read beyond frontier");
        self.region
            .read(addr, len)
            .expect("allocated range is in bounds")
    }
}

/// Coordinator-side state of one memgest.
#[derive(Debug)]
pub struct CoordMemgest {
    /// The descriptor.
    pub desc: MemgestDescriptor,
    /// The metadata hashtable.
    pub meta: MetaTable,
    /// The data store.
    pub store: CoordStore,
    /// The rebuilding parity nodes that SRS puts are stalled for; puts
    /// flow only while it is empty.
    pub stalled: BTreeSet<NodeId>,
}

impl CoordMemgest {
    /// Drops one version: its metadata entry and, for replicated
    /// memgests, its value (SRS heap space is append-only).
    pub fn forget(&mut self, key: Key, version: Version) {
        self.meta.remove(key, version);
        if let CoordStore::Rep { values } = &mut self.store {
            values.remove(&(key, version));
        }
    }
}

/// The data store of a coordinator memgest.
#[derive(Debug)]
pub enum CoordStore {
    /// Replicated memgests store whole values per `(key, version)`.
    Rep {
        /// The value map (Arc-backed: entries share bytes with the
        /// replication fan-out and response cache).
        values: HashMap<(Key, Version), Payload, FxBuild>,
    },
    /// SRS memgests store values in a bump-allocated heap with the
    /// stretched-code address arithmetic alongside.
    Srs {
        /// The heap.
        heap: Heap,
        /// Address arithmetic for parity updates and recovery.
        layout: SrsLayout,
    },
}

impl CoordStore {
    /// Reads the locally present value of `(key, version)`, whose
    /// metadata is `entry`: a handle clone for replicated memgests, a
    /// heap read at `entry`'s address for SRS ones. (A method of the
    /// store, not of [`CoordMemgest`], so callers can hold a `&mut`
    /// entry out of the sibling `meta` field while reading.)
    pub fn read_value(&self, key: Key, version: Version, entry: &ObjectEntry) -> Payload {
        match self {
            CoordStore::Rep { values } => values
                .get(&(key, version))
                .cloned()
                .unwrap_or_else(Payload::empty),
            CoordStore::Srs { heap, .. } => Payload::from(heap.read(entry.addr, entry.len)),
        }
    }
}

/// Redundant-node-side state of one memgest.
#[derive(Debug)]
pub struct RedundantMemgest {
    /// The descriptor.
    pub desc: MemgestDescriptor,
    /// Metadata replicas, possibly covering several shards.
    pub meta: MetaTable,
    /// The redundancy payload.
    pub store: RedundantStore,
}

/// The payload a redundant node holds for a memgest.
#[derive(Debug)]
pub enum RedundantStore {
    /// Replica copies of whole values.
    Rep {
        /// The value map (Arc-backed, shared with the incoming message).
        values: HashMap<(Key, Version), Payload, FxBuild>,
    },
    /// A parity heap region covering the coordinators' data heaps.
    Parity {
        /// The parity bytes.
        region: MemoryRegion,
        /// High-water mark of applied parity addresses.
        len: usize,
        /// Address arithmetic for decode and rebuild.
        layout: SrsLayout,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_table_highest_and_remove_below() {
        let mut t = MetaTable::new();
        t.insert(1, 3, ObjectEntry::new(10, 0, false));
        t.insert(1, 1, ObjectEntry::new(10, 0, false));
        t.insert(1, 2, ObjectEntry::new(10, 0, false));
        assert_eq!(t.highest(1).unwrap().0, 3);
        assert_eq!(t.len(), 3);
        let removed = t.remove_below(1, 3);
        assert_eq!(removed.len(), 2);
        assert_eq!(t.len(), 1);
        assert!(t.get(1, 3).is_some());
        assert!(t.get(1, 1).is_none());
    }

    #[test]
    fn meta_table_remove_clears_empty_keys() {
        let mut t = MetaTable::new();
        t.insert(7, 1, ObjectEntry::new(4, 0, false));
        assert!(t.remove(7, 1).is_some());
        assert!(t.is_empty());
        assert!(t.remove(7, 1).is_none());
    }

    #[test]
    fn meta_table_iteration_and_size() {
        let mut t = MetaTable::new();
        t.insert(1, 1, ObjectEntry::new(4, 0, false));
        t.insert(2, 1, ObjectEntry::new(4, 0, false));
        t.insert(2, 2, ObjectEntry::new(4, 0, false));
        assert_eq!(t.iter().count(), 3);
        assert_eq!(t.approx_bytes(), 3 * 36);
    }

    #[test]
    fn volatile_orders_versions_descending() {
        let mut v = VolatileTable::new();
        v.record(5, 2, 0);
        v.record(5, 7, 1);
        v.record(5, 4, 2);
        assert_eq!(v.highest(5), Some((7, 1)));
        assert_eq!(v.versions(5), &[(7, 1), (4, 2), (2, 0)]);
        v.remove(5, 7);
        assert_eq!(v.highest(5), Some((4, 2)));
        v.remove_below(5, 4);
        assert_eq!(v.versions(5), &[(4, 2)]);
    }

    #[test]
    fn volatile_record_is_idempotent_and_updates_memgest() {
        let mut v = VolatileTable::new();
        v.record(1, 1, 0);
        v.record(1, 1, 3); // Same version moved to another memgest.
        assert_eq!(v.versions(1), &[(1, 3)]);
        assert_eq!(v.keys(), 1);
    }

    #[test]
    fn volatile_empty_key_queries() {
        let v = VolatileTable::new();
        assert_eq!(v.highest(42), None);
        assert!(v.versions(42).is_empty());
    }

    #[test]
    fn heap_alloc_write_read() {
        let mut h = Heap::new(16);
        let a = h.alloc(10);
        assert_eq!(a, 0);
        let delta = h.write_delta(a, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(delta, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10]); // Fresh = zeros.
        assert_eq!(h.read(a, 3), vec![1, 2, 3]);
        // Second write produces the XOR delta.
        let delta = h.write_delta(a, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 11]);
        assert_eq!(delta[9], 10 ^ 11);
        assert_eq!(delta[..9], vec![0; 9]);
    }

    #[test]
    fn heap_grows_on_demand() {
        let mut h = Heap::new(8);
        let a = h.alloc(100);
        h.write_delta(a, &[7u8; 100]);
        assert_eq!(h.read(a, 100), vec![7u8; 100]);
        assert!(h.region().len() >= 100);
    }

    #[test]
    fn heap_reserve_upto_moves_frontier() {
        let mut h = Heap::new(8);
        h.reserve_upto(50);
        let a = h.alloc(4);
        assert_eq!(a, 50);
        h.reserve_upto(10); // Never shrinks.
        assert_eq!(h.len(), 54);
    }

    #[test]
    #[should_panic(expected = "beyond frontier")]
    fn heap_unallocated_read_panics() {
        let h = Heap::new(64);
        let _ = h.read(0, 1);
    }

    #[test]
    fn recovered_entries_are_committed_without_data() {
        let e = ObjectEntry::recovered(10, 5, false);
        assert!(e.committed);
        assert!(!e.data_present);
        let f = ObjectEntry::new(10, 5, true);
        assert!(!f.committed);
        assert!(f.tombstone);
    }
}
