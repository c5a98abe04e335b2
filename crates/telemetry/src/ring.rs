//! Fixed-capacity, allocation-free event ring.
//!
//! The ring is the trap-context store: when the MMU catches a dangling
//! use, the last N events (allocations, frees, protections, remaps) are
//! attached to the [`crate::TrapReport`], GWP-ASan-style. Storage is one
//! boxed slice allocated at construction; [`EventRing::push`] never
//! allocates, so it is safe on the hottest simulated paths.

/// What an [`Event`] records. Payloads are small fixed-width fields so the
/// whole event stays `Copy`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Fresh pages mapped (`mmap` / `mmap_fixed`).
    Mmap {
        /// Pages mapped.
        pages: u32,
    },
    /// Shadow alias created over existing frames (`mremap` in the paper).
    Mremap {
        /// Pages aliased.
        pages: u32,
    },
    /// Protection change (the detector's `PROT_NONE` on free).
    Mprotect {
        /// Pages whose protection changed.
        pages: u32,
    },
    /// Pages unmapped.
    Munmap {
        /// Pages unmapped.
        pages: u32,
    },
    /// A no-op kernel crossing (the `PA + dummy syscalls` configuration).
    DummySyscall,
    /// A successful allocation (any allocator layer).
    Alloc {
        /// Requested payload bytes.
        bytes: u32,
    },
    /// A successful free.
    Free {
        /// Payload bytes released.
        bytes: u32,
    },
    /// A page run served from the pool-destroy free list (§4.3 recycling).
    FreeListHit {
        /// Pages served.
        pages: u32,
    },
    /// The free list could not serve the run; fresh VA was consumed.
    FreeListMiss {
        /// Pages freshly mapped instead.
        pages: u32,
    },
    /// A pool came into existence (`poolcreate`).
    PoolCreate,
    /// A pool was destroyed (`pooldestroy`), releasing its pages.
    PoolDestroy,
    /// An MMU trap was delivered (dangling use caught, or a wild access).
    Trap,
}

impl EventKind {
    /// Stable lower-case name used in JSON and as the registry counter
    /// suffix (`event.<name>`).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Mmap { .. } => "mmap",
            EventKind::Mremap { .. } => "mremap",
            EventKind::Mprotect { .. } => "mprotect",
            EventKind::Munmap { .. } => "munmap",
            EventKind::DummySyscall => "dummy_syscall",
            EventKind::Alloc { .. } => "alloc",
            EventKind::Free { .. } => "free",
            EventKind::FreeListHit { .. } => "free_list_hit",
            EventKind::FreeListMiss { .. } => "free_list_miss",
            EventKind::PoolCreate => "pool_create",
            EventKind::PoolDestroy => "pool_destroy",
            EventKind::Trap => "trap",
        }
    }

    /// Number of event kinds.
    pub(crate) const COUNT: usize = 12;

    /// This kind's position among the [`EventKind::COUNT`] kinds, in
    /// declaration order.
    pub(crate) fn index(&self) -> usize {
        match self {
            EventKind::Mmap { .. } => 0,
            EventKind::Mremap { .. } => 1,
            EventKind::Mprotect { .. } => 2,
            EventKind::Munmap { .. } => 3,
            EventKind::DummySyscall => 4,
            EventKind::Alloc { .. } => 5,
            EventKind::Free { .. } => 6,
            EventKind::FreeListHit { .. } => 7,
            EventKind::FreeListMiss { .. } => 8,
            EventKind::PoolCreate => 9,
            EventKind::PoolDestroy => 10,
            EventKind::Trap => 11,
        }
    }

    /// The registry counter bumped on every [`crate::Telemetry::record`] of
    /// this kind.
    pub fn counter_name(&self) -> &'static str {
        match self {
            EventKind::Mmap { .. } => "event.mmap",
            EventKind::Mremap { .. } => "event.mremap",
            EventKind::Mprotect { .. } => "event.mprotect",
            EventKind::Munmap { .. } => "event.munmap",
            EventKind::DummySyscall => "event.dummy_syscall",
            EventKind::Alloc { .. } => "event.alloc",
            EventKind::Free { .. } => "event.free",
            EventKind::FreeListHit { .. } => "event.free_list_hit",
            EventKind::FreeListMiss { .. } => "event.free_list_miss",
            EventKind::PoolCreate => "event.pool_create",
            EventKind::PoolDestroy => "event.pool_destroy",
            EventKind::Trap => "event.trap",
        }
    }

    /// The numeric payload (pages or bytes), if the kind carries one.
    pub fn magnitude(&self) -> Option<u64> {
        match *self {
            EventKind::Mmap { pages }
            | EventKind::Mremap { pages }
            | EventKind::Mprotect { pages }
            | EventKind::Munmap { pages }
            | EventKind::FreeListHit { pages }
            | EventKind::FreeListMiss { pages } => Some(u64::from(pages)),
            EventKind::Alloc { bytes } | EventKind::Free { bytes } => Some(u64::from(bytes)),
            EventKind::DummySyscall
            | EventKind::PoolCreate
            | EventKind::PoolDestroy
            | EventKind::Trap => None,
        }
    }

    /// Inverse of [`EventKind::name`] + magnitude, for JSON parsing.
    pub fn from_name(name: &str, magnitude: Option<u64>) -> Option<EventKind> {
        let m32 = |m: Option<u64>| m.map(|v| v.min(u64::from(u32::MAX)) as u32).unwrap_or(0);
        Some(match name {
            "mmap" => EventKind::Mmap { pages: m32(magnitude) },
            "mremap" => EventKind::Mremap { pages: m32(magnitude) },
            "mprotect" => EventKind::Mprotect { pages: m32(magnitude) },
            "munmap" => EventKind::Munmap { pages: m32(magnitude) },
            "dummy_syscall" => EventKind::DummySyscall,
            "alloc" => EventKind::Alloc { bytes: m32(magnitude) },
            "free" => EventKind::Free { bytes: m32(magnitude) },
            "free_list_hit" => EventKind::FreeListHit { pages: m32(magnitude) },
            "free_list_miss" => EventKind::FreeListMiss { pages: m32(magnitude) },
            "pool_create" => EventKind::PoolCreate,
            "pool_destroy" => EventKind::PoolDestroy,
            "trap" => EventKind::Trap,
            _ => return None,
        })
    }
}

/// One timestamped entry in the ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Simulated cycle at which the event happened.
    pub clock: u64,
    /// The address the event concerns (page base, object base, fault
    /// address — whatever is most useful for the kind; 0 if none).
    pub addr: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Fixed-capacity circular buffer of [`Event`]s.
///
/// Overwrites the oldest entry once full; `total_recorded` keeps counting
/// so overflow is observable.
#[derive(Clone, Debug)]
pub struct EventRing {
    buf: Vec<Event>,
    capacity: usize,
    /// Index of the *next* slot to write.
    head: usize,
    /// Events ever pushed (≥ `len`).
    recorded: u64,
}

impl EventRing {
    /// A ring holding at most `capacity` events. Capacity 0 is legal and
    /// makes every push a no-op.
    pub fn new(capacity: usize) -> Self {
        EventRing { buf: Vec::with_capacity(capacity), capacity, head: 0, recorded: 0 }
    }

    /// Appends an event, evicting the oldest if full. Never allocates
    /// beyond the capacity reserved at construction. The head wraps by a
    /// compare, not a divide: this runs on every recorded event.
    pub fn push(&mut self, ev: Event) {
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
        }
        self.head += 1;
        if self.head == self.capacity {
            self.head = 0;
        }
        self.recorded += 1;
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded (or capacity is 0).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum events held.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events ever pushed, including those overwritten.
    pub fn total_recorded(&self) -> u64 {
        self.recorded
    }

    /// Events lost to overwriting (or to a zero-capacity ring never
    /// storing anything): pushes that are no longer retrievable. Nonzero
    /// means a trap's event context is truncated.
    pub fn dropped(&self) -> u64 {
        self.recorded.saturating_sub(self.buf.len() as u64)
    }

    /// Iterates oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        let split = if self.buf.len() == self.capacity { self.head } else { 0 };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }

    /// Copies the most recent `n` events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<Event> {
        let all: Vec<Event> = self.iter().copied().collect();
        let skip = all.len().saturating_sub(n);
        all[skip..].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(clock: u64) -> Event {
        Event { clock, addr: clock * 16, kind: EventKind::Alloc { bytes: 8 } }
    }

    #[test]
    fn fills_then_wraps_keeping_newest() {
        let mut r = EventRing::new(4);
        assert!(r.is_empty());
        for c in 0..10 {
            r.push(ev(c));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.capacity(), 4);
        assert_eq!(r.total_recorded(), 10);
        assert_eq!(r.dropped(), 6, "overwritten events are counted");
        let clocks: Vec<u64> = r.iter().map(|e| e.clock).collect();
        assert_eq!(clocks, vec![6, 7, 8, 9], "oldest→newest after wraparound");
    }

    #[test]
    fn tail_clamps_to_available() {
        let mut r = EventRing::new(8);
        for c in 0..3 {
            r.push(ev(c));
        }
        let t = r.tail(100);
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].clock, 0);
        let t = r.tail(2);
        assert_eq!(t.iter().map(|e| e.clock).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn wraparound_exactly_at_boundary() {
        let mut r = EventRing::new(3);
        for c in 0..3 {
            r.push(ev(c));
        }
        assert_eq!(r.iter().map(|e| e.clock).collect::<Vec<_>>(), vec![0, 1, 2]);
        r.push(ev(3));
        assert_eq!(r.iter().map(|e| e.clock).collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn every_capacity_keeps_the_newest_events_in_order() {
        // The head wraps by a compare: at capacity 1 it wraps on every
        // push, and at every capacity the ring holds the newest events.
        for cap in 1..=5 {
            let mut r = EventRing::new(cap);
            for n in 0..13u64 {
                let first = n.saturating_sub(cap as u64);
                let want: Vec<u64> = (first..n).collect();
                assert_eq!(r.iter().map(|e| e.clock).collect::<Vec<_>>(), want, "cap {cap}");
                r.push(ev(n));
            }
        }
    }

    #[test]
    fn zero_capacity_is_a_sink() {
        let mut r = EventRing::new(0);
        r.push(ev(1));
        assert!(r.is_empty());
        assert_eq!(r.total_recorded(), 0);
        assert_eq!(r.dropped(), 0);
        assert!(r.tail(4).is_empty());
    }

    #[test]
    fn kind_names_round_trip() {
        let kinds = [
            EventKind::Mmap { pages: 3 },
            EventKind::Mremap { pages: 1 },
            EventKind::Mprotect { pages: 2 },
            EventKind::Munmap { pages: 9 },
            EventKind::DummySyscall,
            EventKind::Alloc { bytes: 128 },
            EventKind::Free { bytes: 64 },
            EventKind::FreeListHit { pages: 2 },
            EventKind::FreeListMiss { pages: 2 },
            EventKind::PoolCreate,
            EventKind::PoolDestroy,
            EventKind::Trap,
        ];
        for (i, k) in kinds.into_iter().enumerate() {
            let back = EventKind::from_name(k.name(), k.magnitude()).unwrap();
            assert_eq!(back, k);
            assert_eq!(k.index(), i, "{k:?}");
        }
        assert_eq!(kinds.len(), EventKind::COUNT);
        assert!(EventKind::from_name("bogus", None).is_none());
    }
}
