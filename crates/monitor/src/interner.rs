//! The process-wide topic interner.
//!
//! Every distinct [`Topic`](crate::topic::Topic) is registered here exactly
//! once and handed out as a `&'static`-shared record carrying a stable
//! small-integer [`TopicId`]. The registry is process-lifetime (entries
//! are never evicted), so records are leaked on registration and handles
//! are plain `Copy` references: cloning a topic costs nothing — not even
//! a reference-count bump — comparing it is an integer compare, and
//! brokers/stores can key routing tables and series columns by `TopicId`
//! instead of re-hashing strings per sample.
//!
//! Ids are assigned in registration order and never reused; the registry
//! grows monotonically for the process lifetime (bounded by the number of
//! distinct topics, a few hundred for a cluster of this size). The
//! `Display`/parse round-trip is lossless — the rendered form is exactly
//! the `/`-joined segments, so the `<value>;<timestamp>` wire format and
//! every event/telemetry byte are unchanged by interning.

use std::collections::HashMap;
use std::sync::LazyLock;

use parking_lot::RwLock;

/// A stable small-integer handle for an interned topic.
///
/// Ids are dense (assigned from 0 in registration order), which lets hot
/// consumers index plain vectors by [`TopicId::index`] instead of hashing.
/// Ordering follows registration order, not topic-name order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TopicId(pub(crate) u32);

impl TopicId {
    /// The raw id.
    pub fn as_u32(self) -> u32 {
        self.0
    }

    /// The id as a dense vector index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The shared, immutable record behind one interned topic.
#[derive(Debug)]
pub(crate) struct TopicData {
    pub(crate) id: TopicId,
    pub(crate) segments: Vec<String>,
    pub(crate) display: String,
}

#[derive(Default)]
struct Interner {
    by_display: HashMap<String, u32>,
    entries: Vec<&'static TopicData>,
    /// Deep registrations performed (cache misses). Steady-state hot
    /// paths must keep this flat — the zero-allocation probe asserts it.
    registrations: u64,
}

static INTERNER: LazyLock<RwLock<Interner>> = LazyLock::new(|| RwLock::new(Interner::default()));

/// Looks up an already-interned topic by its rendered form without
/// allocating. Returns `None` if the topic has never been registered.
pub(crate) fn lookup_display(display: &str) -> Option<&'static TopicData> {
    let interner = INTERNER.read();
    interner
        .by_display
        .get(display)
        .map(|&i| interner.entries[i as usize])
}

/// Resolves an id back to its record.
pub(crate) fn get(id: TopicId) -> Option<&'static TopicData> {
    INTERNER.read().entries.get(id.index()).copied()
}

/// Interns validated segments, returning the shared record (registering it
/// on first sight). `segments` must already satisfy the topic grammar.
pub(crate) fn intern(segments: Vec<String>) -> &'static TopicData {
    let display = segments.join("/");
    if let Some(found) = lookup_display(&display) {
        return found;
    }
    let mut interner = INTERNER.write();
    if let Some(&i) = interner.by_display.get(&display) {
        return interner.entries[i as usize];
    }
    let id = TopicId(
        u32::try_from(interner.entries.len()).expect("topic interner overflow (2^32 topics)"),
    );
    // Leaked deliberately: the registry never evicts, so every record
    // lives for the process lifetime regardless — leaking makes that
    // explicit and lets handles be refcount-free `Copy` references.
    let data: &'static TopicData = Box::leak(Box::new(TopicData {
        id,
        segments,
        display: display.clone(),
    }));
    interner.by_display.insert(display, id.0);
    interner.entries.push(data);
    interner.registrations += 1;
    data
}

/// Number of distinct topics interned so far.
pub fn interned_count() -> usize {
    INTERNER.read().entries.len()
}

/// Total deep registrations performed (monotonic). A steady-state
/// telemetry loop over pre-registered topics must not move this counter;
/// the zero-allocation tests assert exactly that.
pub fn registration_count() -> u64 {
    INTERNER.read().registrations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stable_and_shared() {
        let a = intern(vec!["interner".into(), "stable".into(), "x".into()]);
        let b = intern(vec!["interner".into(), "stable".into(), "x".into()]);
        assert_eq!(a.id, b.id);
        assert!(std::ptr::eq(a, b));
        let c = intern(vec!["interner".into(), "stable".into(), "y".into()]);
        assert_ne!(a.id, c.id);
        assert_eq!(get(a.id).unwrap().display, "interner/stable/x");
    }

    #[test]
    fn repeat_interning_does_not_register_again() {
        // Other tests intern concurrently, so the process-wide counter is
        // no witness here: a re-registration would mint a new record and
        // id, so identity of both is the test.
        let first = intern(vec!["interner".into(), "idem".into()]);
        for _ in 0..10 {
            let again = intern(vec!["interner".into(), "idem".into()]);
            assert!(std::ptr::eq(first, again));
            assert_eq!(first.id, again.id);
            let found = lookup_display("interner/idem").expect("registered");
            assert!(std::ptr::eq(first, found));
        }
        assert!(std::ptr::eq(get(first.id).expect("id resolves"), first));
    }
}
