//! The manager's two tables, flat arrays of plain integers.
//!
//! * [`UniqueTable`] hash-conses nodes. Each slot holds a node index and
//!   a 32-bit hash tag; the key `(var, lo, hi)` is read back from the
//!   arena. Open addressing with linear probing at a load of at most
//!   3/4. The arena is append-only, so entries are only ever added.
//! * [`ComputedTable`] memoises ITE results. It is direct-mapped and
//!   lossy: an insert overwrites whatever shared its slot. Its slot
//!   count follows the arena up to [`COMPUTED_MAX_SLOTS`].
//!
//! Losing a computed entry never changes the diagram: a miss only
//! recomputes, and every node the recomputation asks `mk` for already
//! exists, so node indices, `node_count()` and the node-cap point are
//! those a complete table would give.

use crate::node::Node;

/// Multiplicative hash of three words. Callers take the top bits,
/// which every input bit reaches.
#[inline]
fn hash3(a: u32, b: u32, c: u32) -> u64 {
    let x = (u64::from(a) << 32 | u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (x ^ u64::from(c)).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

/// The top 32 bits of a node key's hash: the unique table's slot tag.
/// A slot's home position is the tag's top bits, so growing never
/// reads the arena.
#[inline]
fn tag_of(key: Node) -> u32 {
    (hash3(key.var, key.lo, key.hi) >> 32) as u32
}

/// Slots a fresh unique table starts with.
const UNIQUE_MIN_SLOTS: usize = 1 << 10;

/// Open-addressing unique table over node indices.
pub(crate) struct UniqueTable {
    /// `tag << 32 | index`; index 0 (a terminal, never stored) marks an
    /// empty slot.
    slots: Vec<u64>,
    /// Occupied slots.
    len: usize,
    /// `32 - log2(slots.len())`: a tag shifted right by this is its home.
    shift: u32,
}

impl UniqueTable {
    pub(crate) fn new() -> Self {
        Self::with_slots(UNIQUE_MIN_SLOTS)
    }

    fn with_slots(slots: usize) -> Self {
        debug_assert!(slots.is_power_of_two() && slots >= 2);
        assert!(slots <= 1 << 32, "unique table past 2^32 slots");
        UniqueTable {
            slots: vec![0; slots],
            len: 0,
            shift: 32 - slots.trailing_zeros(),
        }
    }

    /// Number of nodes registered.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Bytes held, at full capacity.
    pub(crate) fn bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<u64>()
    }

    #[inline]
    fn home(&self, tag: u32) -> usize {
        (tag >> self.shift) as usize
    }

    /// Slot holding `key`'s node, if registered.
    #[inline]
    fn position(&self, nodes: &[Node], key: Node) -> Option<usize> {
        let tag = tag_of(key);
        let mask = self.slots.len() - 1;
        let mut i = self.home(tag);
        loop {
            let s = self.slots[i];
            let idx = s as u32;
            if idx == 0 {
                return None;
            }
            if (s >> 32) as u32 == tag && nodes[idx as usize] == key {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Index of the node whose key is `key`, if registered.
    #[inline]
    pub(crate) fn find(&self, nodes: &[Node], key: Node) -> Option<u32> {
        self.position(nodes, key).map(|i| self.slots[i] as u32)
    }

    /// Registers node `idx`, whose key `key` must not be registered yet.
    pub(crate) fn insert(&mut self, key: Node, idx: u32) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.resize(self.slots.len() * 2);
        }
        self.place(u64::from(tag_of(key)) << 32 | u64::from(idx));
        self.len += 1;
    }

    fn place(&mut self, slot: u64) {
        let mask = self.slots.len() - 1;
        let mut i = self.home((slot >> 32) as u32);
        while self.slots[i] as u32 != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
    }

    fn resize(&mut self, slots: usize) {
        let old = std::mem::replace(self, Self::with_slots(slots));
        for slot in old.slots.into_iter().filter(|&s| s as u32 != 0) {
            self.place(slot);
        }
        self.len = old.len;
    }

    /// Every slot's tag matches its node's key, probing from the key's
    /// home reaches it, and `len` counts the occupied slots.
    pub(crate) fn is_consistent(&self, nodes: &[Node]) -> bool {
        let mut occupied = 0;
        for (i, &s) in self.slots.iter().enumerate() {
            let idx = s as u32;
            if idx == 0 {
                continue;
            }
            occupied += 1;
            let Some(&node) = nodes.get(idx as usize) else {
                return false;
            };
            if idx < 2 || (s >> 32) as u32 != tag_of(node) {
                return false;
            }
            if self.position(nodes, node) != Some(i) {
                return false;
            }
        }
        occupied == self.len
    }
}

/// Slots a fresh computed table starts with, and sheds back to under
/// soft memory pressure.
const COMPUTED_MIN_SLOTS: usize = 1 << 10;
/// The computed table's ceiling: 16 MiB of 16-byte slots.
const COMPUTED_MAX_SLOTS: usize = 1 << 20;

/// Direct-mapped, lossy ITE computed table.
pub(crate) struct ComputedTable {
    /// `[f, g, h, ite(f, g, h)]`; `f = 0` marks an empty slot (no stored
    /// key has a constant `f`).
    slots: Vec<[u32; 4]>,
    /// `64 - log2(slots.len())`: a key's hash shifted right by this is
    /// its slot.
    shift: u32,
    /// The slot count [`ComputedTable::follow`] grows to at most.
    ceiling: usize,
}

impl ComputedTable {
    pub(crate) fn new() -> Self {
        Self::with_slots(COMPUTED_MIN_SLOTS, COMPUTED_MAX_SLOTS)
    }

    /// A table held at `slots` slots for its whole life.
    #[cfg(test)]
    pub(crate) fn held_at(slots: usize) -> Self {
        Self::with_slots(slots, slots)
    }

    fn with_slots(slots: usize, ceiling: usize) -> Self {
        debug_assert!(slots.is_power_of_two() && slots >= 2);
        ComputedTable {
            slots: vec![[0; 4]; slots],
            shift: 64 - slots.trailing_zeros(),
            ceiling,
        }
    }

    /// Bytes held, at full capacity.
    pub(crate) fn bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<[u32; 4]>()
    }

    #[inline]
    fn slot(&self, f: u32, g: u32, h: u32) -> usize {
        (hash3(f, g, h) >> self.shift) as usize
    }

    #[inline]
    pub(crate) fn get(&self, f: u32, g: u32, h: u32) -> Option<u32> {
        let [sf, sg, sh, r] = self.slots[self.slot(f, g, h)];
        (sf == f && sg == g && sh == h).then_some(r)
    }

    /// Stores `ite(f, g, h) = r`, evicting the slot's previous entry.
    #[inline]
    pub(crate) fn insert(&mut self, f: u32, g: u32, h: u32, r: u32) {
        debug_assert!(f > 1, "constant f is a terminal case");
        let i = self.slot(f, g, h);
        self.slots[i] = [f, g, h, r];
    }

    /// Forgets every entry, keeping the slot count.
    pub(crate) fn clear(&mut self) {
        self.slots.fill([0; 4]);
    }

    /// Grows toward one slot per arena node, up to the ceiling and by
    /// less than `room` bytes, keeping the entries that land in distinct
    /// slots. Returns whether it grew.
    pub(crate) fn follow(&mut self, arena: usize, room: usize) -> bool {
        let slot_bytes = std::mem::size_of::<[u32; 4]>();
        let mut target = arena.next_power_of_two().min(self.ceiling);
        while target > self.slots.len() && (target - self.slots.len()) * slot_bytes >= room {
            target /= 2;
        }
        if target <= self.slots.len() {
            return false;
        }
        let old = std::mem::replace(self, Self::with_slots(target, self.ceiling));
        for [f, g, h, r] in old.slots.into_iter().filter(|s| s[0] != 0) {
            self.insert(f, g, h, r);
        }
        true
    }

    /// Drops every entry and returns to the minimum slot count. Returns
    /// whether that freed anything.
    pub(crate) fn shed(&mut self) -> bool {
        if self.slots.len() <= COMPUTED_MIN_SLOTS {
            return false;
        }
        *self = Self::with_slots(COMPUTED_MIN_SLOTS, self.ceiling);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(var: u32, lo: u32, hi: u32) -> Node {
        Node { var, lo, hi }
    }

    /// An arena of `n` distinct decision nodes after the two terminals.
    fn arena(n: u32) -> Vec<Node> {
        let mut nodes = vec![Node::terminal(), Node::terminal()];
        nodes.extend((0..n).map(|i| node(i % 7, i, i + 1)));
        nodes
    }

    #[test]
    fn unique_table_finds_every_registered_node_across_growth() {
        let nodes = arena(5000);
        let mut t = UniqueTable::new();
        for (i, &n) in nodes.iter().enumerate().skip(2) {
            assert_eq!(t.find(&nodes, n), None);
            t.insert(n, i as u32);
        }
        assert_eq!(t.len(), 5000);
        assert!(t.bytes() >= 5000 * 4 / 3 * 8);
        assert!(t.is_consistent(&nodes));
        for (i, &n) in nodes.iter().enumerate().skip(2) {
            assert_eq!(t.find(&nodes, n), Some(i as u32));
        }
        assert_eq!(t.find(&nodes, node(3, 1, 0)), None);
    }

    #[test]
    fn computed_table_is_lossy_but_never_wrong() {
        let mut c = ComputedTable::held_at(2);
        c.insert(5, 0, 1, 9);
        assert_eq!(c.get(5, 0, 1), Some(9));
        for k in 2..40 {
            c.insert(k, k + 1, k + 2, k + 3);
        }
        // Whatever survived is the value stored under its own key.
        for k in 2..40 {
            assert!(c.get(k, k + 1, k + 2).is_none_or(|r| r == k + 3));
        }
        assert!(!c.follow(1 << 20, usize::MAX), "a held table never grows");
        assert_eq!(c.bytes(), 32);
    }

    #[test]
    fn computed_table_follows_the_arena_up_to_its_ceiling_and_sheds() {
        let mut c = ComputedTable::new();
        assert_eq!(c.bytes(), COMPUTED_MIN_SLOTS * 16);
        assert!(!c.follow(100, usize::MAX));
        c.insert(7, 8, 9, 10);
        assert!(!c.follow(3000, 1024 * 16), "no room for one doubling");
        assert!(c.follow(3000, 1024 * 16 + 1));
        assert_eq!(c.bytes(), 2048 * 16, "one doubling fits the room");
        assert!(c.follow(3000, usize::MAX));
        assert_eq!(c.bytes(), 4096 * 16);
        assert_eq!(c.get(7, 8, 9), Some(10), "growth keeps entries");
        assert!(c.follow(usize::MAX / 4, usize::MAX));
        assert_eq!(c.bytes(), COMPUTED_MAX_SLOTS * 16);
        assert!(c.shed());
        assert_eq!(c.bytes(), COMPUTED_MIN_SLOTS * 16);
        assert_eq!(c.get(7, 8, 9), None);
        assert!(!c.shed(), "nothing left to shed");
    }
}
