//! One shard's keyed store: a slab indexed by key, its values threaded
//! onto one doubly linked list by slot index in order of **last touch**.
//! Whoever asks "who has been idle longest" reads the cold end instead
//! of scanning: [`Table::coldest`] names the eviction victim (the
//! smallest key among up to [`TIE_WALK_BOUND`] values sharing the cold
//! end's stamp) and [`Table::pop_expired`] pops cold ends while they
//! are stale. The order is a function of the operation history alone,
//! never of hash order. A tracker shard keeps two: its live sessions,
//! stamped by their last exchange, and its parked carries, stamped when
//! parked.
//!
//! The key is stored once, in the value in its slab slot. The index
//! keeps only the slot and 32 bits of the key's hash (an 8-byte
//! [`Bucket`]), and a lookup compares a candidate's key in the slab.

use crate::key::SessionKey;
use crate::time::SimTime;
use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash};

/// What a [`Table`] needs of a value: the key it is filed under and the
/// instant its place in the idle order stands for.
pub(crate) trait Stamped {
    /// The key the value is filed under; it never changes while filed.
    fn key(&self) -> &SessionKey;
    /// When the value was last touched.
    fn stamp(&self) -> SimTime;
}

/// "No slot": the end of the idle order, or an unset link.
const NIL: u32 = u32::MAX;

/// How many values an eviction may walk through a run that shares the
/// cold end's stamp to find the smallest key. Simulated clocks put
/// thousands of sessions on one instant; neither a touch nor an eviction
/// may cost more than a fixed number of values there.
pub(crate) const TIE_WALK_BOUND: usize = 8;

/// One index bucket: the slab slot a key is filed in ([`NIL`] when the
/// bucket is empty) and the low 32 bits of the key's hash, its tag. The
/// tag's low bits name the bucket's home, so the index grows without
/// reading a key.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    slot: u32,
    tag: u32,
}

const EMPTY: Bucket = Bucket { slot: NIL, tag: 0 };

/// The 32 bits of a key's hash a [`Table`] files it under
/// ([`Table::tag`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tag(u32);

const _: () = assert!(std::mem::size_of::<Bucket>() == 8);

/// Which slot each filed key is in: buckets probed linearly from the
/// home the key's tag names, at most seven-eighths full, emptied by
/// backward shift (no tombstones). The hash is std's per-process keyed
/// SipHash: a key's agent is client input, and an unkeyed hash would
/// let a client line its keys up on one probe chain.
#[derive(Debug)]
struct Index<S = RandomState> {
    /// Empty until the first key is filed, a power of two long after.
    buckets: Vec<Bucket>,
    /// Occupied buckets.
    len: usize,
    hasher: S,
}

impl<S: Default> Default for Index<S> {
    fn default() -> Self {
        Index {
            buckets: Vec::new(),
            len: 0,
            hasher: S::default(),
        }
    }
}

impl<S: BuildHasher> Index<S> {
    /// The tag `key` is filed under.
    fn tag<Q: Hash + ?Sized>(&self, key: &Q) -> u32 {
        self.hasher.hash_one(key) as u32
    }

    /// Where the probe from `tag`'s home first meets a bucket `hit`
    /// holds for, if before an empty one.
    fn position(&self, tag: u32, hit: impl Fn(Bucket) -> bool) -> Option<usize> {
        let mask = self.buckets.len().checked_sub(1)?;
        let mut at = tag as usize & mask;
        loop {
            let bucket = self.buckets[at];
            if bucket.slot == NIL {
                return None;
            }
            if hit(bucket) {
                return Some(at);
            }
            at = (at + 1) & mask;
        }
    }

    /// The slot filed under `tag` whose key `is` accepts.
    fn find(&self, tag: u32, is: impl Fn(u32) -> bool) -> Option<u32> {
        let at = self.position(tag, |bucket| bucket.tag == tag && is(bucket.slot))?;
        Some(self.buckets[at].slot)
    }

    /// Files `slot` under `tag`; its key is not filed yet.
    fn insert(&mut self, tag: u32, slot: u32) {
        if (self.len + 1) * 8 > self.buckets.len() * 7 {
            let size = (self.buckets.len() * 2).max(4);
            let old = std::mem::replace(&mut self.buckets, vec![EMPTY; size]);
            for bucket in old.into_iter().filter(|bucket| bucket.slot != NIL) {
                self.place(bucket);
            }
        }
        self.place(Bucket { slot, tag });
        self.len += 1;
    }

    /// Puts `bucket` in the first empty bucket from its home on.
    fn place(&mut self, bucket: Bucket) {
        let mask = self.buckets.len() - 1;
        let mut at = bucket.tag as usize & mask;
        while self.buckets[at].slot != NIL {
            at = (at + 1) & mask;
        }
        self.buckets[at] = bucket;
    }

    /// Unfiles `slot`, filed under `tag`. Each later bucket of the run
    /// whose probe passed the hole (its home cyclically at or before the
    /// hole) moves back into it, leaving a new hole where it was, so
    /// every key stays reachable from its home.
    fn remove(&mut self, tag: u32, slot: u32) {
        let mut hole = self
            .position(tag, |bucket| bucket.slot == slot)
            .expect("a filed slot is indexed");
        let mask = self.buckets.len() - 1;
        let mut at = hole;
        loop {
            at = (at + 1) & mask;
            let bucket = self.buckets[at];
            if bucket.slot == NIL {
                break;
            }
            let home = bucket.tag as usize & mask;
            if at.wrapping_sub(home) & mask >= at.wrapping_sub(hole) & mask {
                self.buckets[hole] = bucket;
                hole = at;
            }
        }
        self.buckets[hole] = EMPTY;
        self.len -= 1;
    }

    /// Checks that the index holds `len` buckets, each naming a
    /// different slot, a slot `tag_of` says is filed under its tag, and
    /// each reachable from its home through occupied buckets; and that
    /// it is at most seven-eighths full, so every probe ends. `name`
    /// labels a failure.
    ///
    /// # Panics
    ///
    /// If any of that fails.
    fn check(&self, name: &str, tag_of: impl Fn(u32) -> Option<u32>) {
        let mask = self.buckets.len().wrapping_sub(1);
        let mut slots = Vec::with_capacity(self.len);
        for (at, bucket) in self.buckets.iter().enumerate() {
            if bucket.slot == NIL {
                continue;
            }
            let slot = bucket.slot;
            slots.push(slot);
            assert_eq!(tag_of(slot), Some(bucket.tag), "{name}: slot {slot}'s tag");
            let mut back = at;
            while back != bucket.tag as usize & mask {
                back = back.wrapping_sub(1) & mask;
                let gap = self.buckets[back].slot == NIL;
                assert!(!gap, "{name}: slot {slot} cut off from its home");
            }
        }
        assert_eq!(slots.len(), self.len, "{name}: buckets vs len");
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), self.len, "{name}: a slot indexed twice");
        assert!(self.len * 8 <= self.buckets.len() * 7, "{name}: overfull");
    }
}

/// One slab slot's occupant: the value plus its neighbours in the idle
/// order, as slot indices.
#[derive(Debug)]
struct Node<V> {
    value: V,
    /// The next colder value ([`NIL`] at the cold end).
    prev: u32,
    /// The next warmer value ([`NIL`] at the warm end).
    next: u32,
}

/// Values indexed by key, in a slab linked by last touch (see the module
/// docs).
#[derive(Debug)]
pub(crate) struct Table<V> {
    index: Index,
    slab: Vec<Option<Node<V>>>,
    /// Vacant slab slots, reused before the slab grows.
    free: Vec<u32>,
    /// The least recently touched value.
    cold: u32,
    /// The most recently touched value.
    warm: u32,
    /// The victim [`Table::coldest`] last worked out, or [`NIL`] once the
    /// run it was taken from changed.
    victim: u32,
}

impl<V> Default for Table<V> {
    fn default() -> Self {
        Table {
            index: Index::default(),
            slab: Vec::new(),
            free: Vec::new(),
            cold: NIL,
            warm: NIL,
            victim: NIL,
        }
    }
}

impl<V: Stamped> Table<V> {
    /// Values filed.
    pub(crate) fn len(&self) -> usize {
        self.index.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slab slots ever allocated, occupied or vacant: the high-water mark
    /// of [`Table::len`].
    pub(crate) fn slots(&self) -> usize {
        self.slab.len()
    }

    /// The slot `key` is filed in.
    pub(crate) fn find<Q>(&self, key: &Q) -> Option<u32>
    where
        SessionKey: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.find_tagged(self.tag(key), key)
    }

    /// The tag `key` is filed under in this table: what a caller that
    /// looks `key` up more than once, or inserts it after a miss, hashes
    /// it for once. The hasher is fixed for the table's life (a
    /// [`Table::take`] keeps it), so a tag stays good across any number
    /// of inserts and removals, and is good for no other table.
    pub(crate) fn tag<Q: Hash + ?Sized>(&self, key: &Q) -> Tag {
        Tag(self.index.tag(key))
    }

    /// [`Table::find`] of a key whose [`Table::tag`] the caller holds.
    pub(crate) fn find_tagged<Q>(&self, tag: Tag, key: &Q) -> Option<u32>
    where
        SessionKey: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        debug_assert_eq!(tag, self.tag(key), "a tag of this table, for this key");
        self.index.find(tag.0, |slot| {
            <SessionKey as Borrow<Q>>::borrow(self.get(slot).key()) == key
        })
    }

    fn node(&self, slot: u32) -> &Node<V> {
        self.slab[slot as usize]
            .as_ref()
            .expect("a linked slot holds a value")
    }

    fn node_mut(&mut self, slot: u32) -> &mut Node<V> {
        self.slab[slot as usize]
            .as_mut()
            .expect("a linked slot holds a value")
    }

    /// The value in an occupied `slot`.
    pub(crate) fn get(&self, slot: u32) -> &V {
        &self.node(slot).value
    }

    /// The value in an occupied `slot`.
    pub(crate) fn get_mut(&mut self, slot: u32) -> &mut V {
        &mut self.node_mut(slot).value
    }

    /// The value in `slot`, if the slot exists and is occupied.
    pub(crate) fn occupant(&mut self, slot: u32) -> Option<&mut V> {
        Some(&mut self.slab.get_mut(slot as usize)?.as_mut()?.value)
    }

    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = *self.node(slot);
        match prev {
            NIL => self.cold = next,
            colder => self.node_mut(colder).next = next,
        }
        match next {
            NIL => self.warm = prev,
            warmer => self.node_mut(warmer).prev = prev,
        }
    }

    fn link_warm(&mut self, slot: u32) {
        let colder = self.warm;
        let node = self.node_mut(slot);
        node.prev = colder;
        node.next = NIL;
        match colder {
            NIL => self.cold = slot,
            colder => self.node_mut(colder).next = slot,
        }
        self.warm = slot;
        // Only a list this short can see its warm end inside the tie
        // walk of its cold end.
        if self.len() <= TIE_WALK_BOUND {
            self.victim = NIL;
        }
    }

    /// Moves a value whose stamp was just written to the warm end.
    pub(crate) fn touch(&mut self, slot: u32) {
        if self.victim == slot {
            self.victim = NIL;
        }
        if self.warm != slot {
            self.unlink(slot);
            self.link_warm(slot);
        }
    }

    /// Files a value whose key is not filed yet, at the warm end.
    pub(crate) fn insert(&mut self, value: V) -> u32 {
        self.insert_tagged(self.tag(value.key()), value)
    }

    /// [`Table::insert`] of a value whose key's [`Table::tag`] the
    /// caller holds.
    pub(crate) fn insert_tagged(&mut self, tag: Tag, value: V) -> u32 {
        debug_assert_eq!(
            tag,
            self.tag(value.key()),
            "a tag of this table, for this key"
        );
        let node = Some(Node {
            value,
            prev: NIL,
            next: NIL,
        });
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = node;
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len())
                    .ok()
                    .filter(|&slot| slot != NIL)
                    .expect("a table holds fewer than 2^32 - 1 values");
                self.slab.push(node);
                slot
            }
        };
        self.index.insert(tag.0, slot);
        self.link_warm(slot);
        slot
    }

    /// Takes every value out as a table of its own, leaving this one
    /// empty under the same hasher: a [`Tag`] taken before stays good.
    pub(crate) fn take(&mut self) -> Table<V> {
        let index = Index {
            buckets: Vec::new(),
            len: 0,
            hasher: self.index.hasher.clone(),
        };
        std::mem::replace(
            self,
            Table {
                index,
                ..Table::default()
            },
        )
    }

    /// Takes the value in an occupied `slot` out.
    pub(crate) fn remove(&mut self, slot: u32) -> V {
        if self.victim == slot {
            self.victim = NIL;
        }
        self.unlink(slot);
        let node = self.slab[slot as usize]
            .take()
            .expect("a linked slot holds a value");
        self.free.push(slot);
        self.index.remove(self.index.tag(node.value.key()), slot);
        node.value
    }

    /// The slot eviction takes: the cold end, or the smallest key among
    /// the (at most [`TIE_WALK_BOUND`]) values that follow it with the
    /// same stamp.
    pub(crate) fn coldest(&mut self) -> Option<u32> {
        if self.victim == NIL && self.cold != NIL {
            let mut best = self.node(self.cold);
            let mut victim = self.cold;
            let mut at = best.next;
            for _ in 1..TIE_WALK_BOUND {
                if at == NIL {
                    break;
                }
                let node = self.node(at);
                if node.value.stamp() != best.value.stamp() {
                    break;
                }
                if node.value.key() < best.value.key() {
                    (best, victim) = (node, at);
                }
                at = node.next;
            }
            self.victim = victim;
        }
        (self.victim != NIL).then_some(self.victim)
    }

    /// Pops up to `budget` values off the cold end while `expired` holds
    /// for them, handing each to `out`, coldest first.
    pub(crate) fn pop_expired(
        &mut self,
        budget: usize,
        expired: impl Fn(&V) -> bool,
        mut out: impl FnMut(V),
    ) {
        for _ in 0..budget {
            if self.cold == NIL || !expired(self.get(self.cold)) {
                break;
            }
            out(self.remove(self.cold));
        }
    }

    /// Every value, in slot order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.slab.iter().flatten().map(|node| &node.value)
    }

    /// Every value, in slot order, the table emptied.
    pub(crate) fn into_values(self) -> impl Iterator<Item = V> {
        self.slab.into_iter().flatten().map(|node| node.value)
    }

    /// Every value, coldest first.
    pub(crate) fn order(&self) -> impl Iterator<Item = &V> {
        let mut at = self.cold;
        std::iter::from_fn(move || {
            let node = self.slab.get(at as usize)?.as_ref()?;
            at = node.next;
            Some(&node.value)
        })
    }

    /// Checks that the structures agree: every index bucket names a
    /// filed slot whose key hashes to the bucket's tag and is reachable
    /// from its home, one bucket a filed value; the idle order links
    /// exactly the filed values, both ways; the free list names exactly
    /// the vacant slots, once each; and the cached victim is not vacant.
    /// `name` labels a failure.
    ///
    /// # Panics
    ///
    /// If they disagree.
    pub(crate) fn check(&self, name: &str) {
        self.index.check(name, |slot| {
            let node = self.slab.get(slot as usize)?.as_ref()?;
            Some(self.index.tag(node.value.key()))
        });
        let (mut linked, mut colder, mut at) = (0, NIL, self.cold);
        while at != NIL {
            assert_eq!(self.node(at).prev, colder, "{name} slot {at}");
            linked += 1;
            assert!(linked <= self.len(), "{name}: a cycle");
            (colder, at) = (at, self.node(at).next);
        }
        assert_eq!(self.warm, colder, "{name}: warm end");
        assert_eq!(linked, self.len(), "{name}: linked vs indexed");
        let vacant: Vec<u32> = (0..self.slab.len() as u32)
            .filter(|&slot| self.slab[slot as usize].is_none())
            .collect();
        let mut free = self.free.clone();
        free.sort_unstable();
        assert_eq!(free, vacant, "{name}: free list vs vacant slots");
        assert_eq!(linked + vacant.len(), self.slab.len(), "{name}");
        assert!(!vacant.contains(&self.victim), "{name}: a stale victim");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botwall_http::request::ClientIp;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::hash::{BuildHasherDefault, Hasher};

    #[derive(Debug)]
    struct Item {
        key: SessionKey,
        stamp: SimTime,
    }

    impl Stamped for Item {
        fn key(&self) -> &SessionKey {
            &self.key
        }

        fn stamp(&self) -> SimTime {
            self.stamp
        }
    }

    fn key(n: u8) -> SessionKey {
        SessionKey::new(ClientIp::new(u32::from(n)), "A")
    }

    /// The reference: the filed keys in touch order, coldest first, and
    /// the victim the table's cache holds, dropped where the table drops
    /// it (the victim itself touched or removed, or a table of at most
    /// [`TIE_WALK_BOUND`] values relinked).
    #[derive(Default)]
    struct Model {
        order: Vec<(SimTime, SessionKey)>,
        victim: Option<SessionKey>,
    }

    impl Model {
        fn position(&self, k: &SessionKey) -> Option<usize> {
            self.order.iter().position(|(_, m)| m == k)
        }

        fn link_warm(&mut self, stamp: SimTime, k: SessionKey) {
            self.order.push((stamp, k));
            if self.order.len() <= TIE_WALK_BOUND {
                self.victim = None;
            }
        }

        fn touch(&mut self, at: usize, stamp: SimTime) {
            let k = self.order[at].1.clone();
            if self.victim.as_ref() == Some(&k) {
                self.victim = None;
            }
            if at + 1 == self.order.len() {
                self.order[at].0 = stamp;
            } else {
                self.order.remove(at);
                self.link_warm(stamp, k);
            }
        }

        fn remove(&mut self, at: usize) -> SessionKey {
            let (_, k) = self.order.remove(at);
            if self.victim.as_ref() == Some(&k) {
                self.victim = None;
            }
            k
        }

        /// The cold end's run of equal stamps, cut to the tie walk.
        fn window(&self) -> &[(SimTime, SessionKey)] {
            let Some((cold, _)) = self.order.first() else {
                return &[];
            };
            let run = self.order.iter().take_while(|(t, _)| t == cold).count();
            &self.order[..run.min(TIE_WALK_BOUND)]
        }
    }

    proptest! {
        /// Random inserts, touches, removals, evictions (or peeks at the
        /// victim) and expiry pops on a clock that never runs backwards,
        /// against a list kept in touch order, which is `(stamp, key)` order up to ties.
        /// Each step checks the structures and the order. An eviction's
        /// victim always has the cold end's stamp and lies inside the
        /// tie walk; a victim worked out afresh is the smallest key
        /// there, and the `(stamp, key)`-smallest value whenever the
        /// cold end's run fits the walk. A pop returns the expired
        /// prefix of the list, up to its budget.
        #[test]
        fn the_table_evicts_and_expires_as_a_list_in_touch_order(
            ops in vec((0u8..9, 0u8..24, 0u64..12), 1..200),
        ) {
            const TTL: u64 = 6;
            let mut table: Table<Item> = Table::default();
            let mut model = Model::default();
            let mut now = SimTime::ZERO;
            for (op, n, tick) in ops {
                // Three steps in four share an instant, so runs of ties
                // longer than the walk are common.
                now += tick.saturating_sub(8);
                let k = key(n);
                match (op, model.position(&k)) {
                    // File a new key, or touch a filed one: twice as
                    // often as the other three together, so the table
                    // fills.
                    (0..=5, None) => {
                        table.insert(Item { key: k.clone(), stamp: now });
                        model.link_warm(now, k);
                    }
                    (0..=5, Some(at)) => {
                        let slot = table.find(&k).expect("filed");
                        table.get_mut(slot).stamp = now;
                        table.touch(slot);
                        model.touch(at, now);
                    }
                    (6, Some(at)) => {
                        let slot = table.find(&k).expect("filed");
                        prop_assert_eq!(&table.remove(slot).key, &k);
                        model.remove(at);
                    }
                    (7, _) => {
                        let fresh = model.victim.is_none();
                        let window = model.window();
                        let got = table.coldest().map(|slot| table.get(slot).key.clone());
                        prop_assert_eq!(got.is_some(), !window.is_empty());
                        if let Some(got) = got {
                            prop_assert!(window.iter().any(|(_, k)| *k == got));
                            if fresh {
                                let smallest = window.iter().map(|(_, k)| k).min();
                                prop_assert_eq!(Some(&got), smallest);
                                if window.len() < TIE_WALK_BOUND {
                                    let least = model.order.iter().min().map(|(_, k)| k);
                                    prop_assert_eq!(Some(&got), least);
                                }
                                model.victim = Some(got.clone());
                            }
                            prop_assert_eq!(model.victim.as_ref(), Some(&got));
                            // Half the time a peek, as another shard's
                            // eviction makes: the victim stays cached.
                            if n % 2 == 0 {
                                let gone = table.remove(table.find(&got).expect("filed"));
                                let at = model.position(&gone.key).expect("filed");
                                model.remove(at);
                            }
                        }
                    }
                    (8, _) => {
                        let budget = usize::from(n % 4);
                        let expired = |t: SimTime| now.since(t) > TTL;
                        let mut popped = Vec::new();
                        table.pop_expired(budget, |v| expired(v.stamp), |v| popped.push(v.key));
                        let expected: Vec<SessionKey> = model
                            .order
                            .iter()
                            .take_while(|(t, _)| expired(*t))
                            .take(budget)
                            .map(|(_, k)| k.clone())
                            .collect();
                        prop_assert_eq!(&popped, &expected);
                        for _ in 0..popped.len() {
                            model.remove(0);
                        }
                    }
                    _ => {}
                }
                table.check("table");
                prop_assert_eq!(table.len(), model.order.len());
                let order: Vec<(SimTime, SessionKey)> =
                    table.order().map(|v| (v.stamp, v.key.clone())).collect();
                prop_assert_eq!(&order, &model.order);
            }
        }
    }

    /// A hash that sends every key to one of the last three buckets,
    /// whatever the index's size: every probe chain wraps past the end,
    /// and most tags are shared, so finding a key compares keys.
    #[derive(Default)]
    struct Crowded(u64);

    impl Hasher for Crowded {
        fn finish(&self) -> u64 {
            u64::MAX - self.0 % 3
        }

        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = self.0.wrapping_mul(31).wrapping_add(u64::from(b));
            }
        }
    }

    proptest! {
        /// Random files, unfiles and finds on the index alone, its keys
        /// held by slot as a slab holds them, against a `HashMap` from
        /// key to slot. Each step checks the index: every bucket names
        /// a filed slot under its key's tag, reachable from its home.
        #[test]
        fn the_index_finds_what_a_map_finds_on_crowded_chains(
            ops in vec((0u8..3, 0u8..48), 1..300),
        ) {
            let mut index: Index<BuildHasherDefault<Crowded>> = Index::default();
            let mut keys: Vec<Option<u8>> = Vec::new();
            let mut model: HashMap<u8, u32> = HashMap::new();
            for (op, k) in ops {
                let tag = index.tag(&k);
                let found = index.find(tag, |slot| keys[slot as usize] == Some(k));
                prop_assert_eq!(found, model.get(&k).copied());
                match (op, found) {
                    // File twice as often as unfile, so chains grow.
                    (0..=1, None) => {
                        let slot = match keys.iter().position(Option::is_none) {
                            Some(slot) => slot,
                            None => {
                                keys.push(None);
                                keys.len() - 1
                            }
                        };
                        keys[slot] = Some(k);
                        index.insert(tag, slot as u32);
                        model.insert(k, slot as u32);
                    }
                    (2, Some(slot)) => {
                        index.remove(tag, slot);
                        keys[slot as usize] = None;
                        model.remove(&k);
                    }
                    _ => {}
                }
                index.check("index", |slot| {
                    keys.get(slot as usize).copied().flatten().map(|k| index.tag(&k))
                });
                prop_assert_eq!(index.len, model.len());
            }
            for (k, slot) in &model {
                let found = index.find(index.tag(k), |s| keys[s as usize] == Some(*k));
                prop_assert_eq!(found, Some(*slot));
            }
        }
    }

    /// A tag taken before the table was emptied by a take still files
    /// and finds its key: the tracker hashes a stranger's key once,
    /// then lets go of the shard (a drain may take its sessions) before
    /// it inserts.
    #[test]
    fn a_tag_outlives_a_take() {
        let mut table: Table<Item> = Table::default();
        let item = |n| Item {
            key: key(n),
            stamp: SimTime::ZERO,
        };
        let tag = table.tag(&key(1));
        table.insert(item(2));
        assert_eq!(table.take().len(), 1);
        assert!(table.is_empty());
        let slot = table.insert_tagged(tag, item(1));
        assert_eq!(table.find(&key(1)), Some(slot));
    }

    #[test]
    fn a_newcomer_inside_the_walk_of_a_short_table_can_be_the_victim() {
        // Up to TIE_WALK_BOUND values the warm end is inside the walk:
        // a smaller key filed at the cold end's instant replaces the
        // cached victim.
        let mut table: Table<Item> = Table::default();
        let file = |table: &mut Table<Item>, n| {
            table.insert(Item {
                key: key(n),
                stamp: SimTime::ZERO,
            })
        };
        for n in 10..10 + TIE_WALK_BOUND as u8 - 1 {
            file(&mut table, n);
        }
        assert_eq!(table.coldest(), table.find(&key(10)));
        file(&mut table, 1);
        assert_eq!(table.coldest(), table.find(&key(1)));
        // Past the bound the newcomer is outside the walk.
        file(&mut table, 0);
        assert_eq!(table.coldest(), table.find(&key(1)));
        table.check("table");
    }
}
