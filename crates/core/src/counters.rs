//! Counters, declared once.
//!
//! A component's statistics are a struct of `pub` [`AtomicU64`] fields that
//! its hot path bumps with a bare `fetch_add`. [`counters!`](crate::counters!) generates that
//! struct from one list of documented field names, together with the
//! [`Counters`] walk that reports every field by name — so adding a counter
//! is adding one line, and nothing that is bumped can be left unreported.
//! Values that are computed rather than bumped (a queue depth, an epoch)
//! come from a hand-written [`Counters`] impl on the type that owns them.
//!
//! A process keeps one [`CounterRegistry`]; whoever constructs a component
//! registers its set there under a dotted prefix (and the server id, for
//! per-server sets). [`CounterRegistry::snapshot`] walks every registered
//! set into [`StatRow`]s named `prefix.field` — the one form system-wide
//! metrics, the `Stats` RPC and the node CLI's dump all share.
//!
//! [`AtomicU64`]: std::sync::atomic::AtomicU64

use crate::ServerId;
use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError, RwLock};

/// A set of named `u64` readouts.
pub trait Counters: Send + Sync {
    /// Calls `f` once per readout with its name (unprefixed) and current
    /// value. Names are `&str`, not `&'static str`, so a set whose rows are
    /// keyed at run time (per-request-kind latencies) can build them.
    fn visit(&self, f: &mut dyn FnMut(&str, u64));
}

/// One readout of a snapshot: `indexing.ingested` of `srv-1` was `42`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatRow {
    /// `prefix.field`.
    pub name: String,
    /// The server the set belongs to; `None` for per-process sets.
    pub server: Option<ServerId>,
    /// The value when the snapshot was taken.
    pub value: u64,
}

/// Declares a counter set: `struct Name { field, … }` becomes a
/// `#[derive(Debug, Default)]` struct of `pub field: AtomicU64` (attributes
/// and docs are kept) that implements [`Counters`] by loading every field.
/// `struct Name => Totals { … }` also generates the plain-`u64` twin
/// `Totals` (`Copy`, `AddAssign`, itself [`Counters`]) and
/// `Name::totals()`, for callers that want a consistent copy to do
/// arithmetic on.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $field:ident),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        $vis struct $name {
            $($(#[$fmeta])* pub $field: ::std::sync::atomic::AtomicU64,)*
        }

        impl $crate::Counters for $name {
            fn visit(&self, f: &mut dyn FnMut(&str, u64)) {
                $(f(
                    stringify!($field),
                    self.$field.load(::std::sync::atomic::Ordering::Relaxed),
                );)*
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident => $totals:ident {
            $($(#[$fmeta:meta])* $field:ident),* $(,)?
        }
    ) => {
        $crate::counters! {
            $(#[$meta])*
            $vis struct $name { $($(#[$fmeta])* $field),* }
        }

        #[doc = concat!("Plain values of a [`", stringify!($name), "`].")]
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        $vis struct $totals {
            $($(#[$fmeta])* pub $field: u64,)*
        }

        impl $name {
            /// The current value of every counter.
            pub fn totals(&self) -> $totals {
                $totals {
                    $($field: self.$field.load(::std::sync::atomic::Ordering::Relaxed),)*
                }
            }
        }

        impl ::std::ops::AddAssign for $totals {
            fn add_assign(&mut self, other: Self) {
                $(self.$field += other.$field;)*
            }
        }

        impl $crate::Counters for $totals {
            fn visit(&self, f: &mut dyn FnMut(&str, u64)) {
                $(f(stringify!($field), self.$field);)*
            }
        }
    };
}

type SetKey = (String, Option<ServerId>);

/// The counter sets of one process, by prefix and server.
#[derive(Default)]
pub struct CounterRegistry {
    sets: RwLock<BTreeMap<SetKey, Arc<dyn Counters>>>,
}

impl CounterRegistry {
    /// Registers `set` under `prefix` (and `server`, for a per-server set),
    /// replacing what was registered under that key before — a restarted
    /// component's fresh set takes its predecessor's place.
    pub fn register(&self, prefix: &str, server: Option<ServerId>, set: Arc<dyn Counters>) {
        let mut sets = self.sets.write().unwrap_or_else(PoisonError::into_inner);
        let replaced = sets.insert((prefix.to_owned(), server), set);
        // Dropped outside the lock: a set may be the last handle on its owner.
        drop(sets);
        drop(replaced);
    }

    /// Forgets every set.
    pub fn clear(&self) {
        let sets = std::mem::take(&mut *self.sets.write().unwrap_or_else(PoisonError::into_inner));
        // Outside the lock, as in `register`.
        drop(sets);
    }

    /// Every readout of every set, ordered by prefix, then server, then
    /// the set's own order.
    pub fn snapshot(&self) -> Vec<StatRow> {
        // Walked outside the lock: a hand-written `visit` may take locks of
        // its own.
        let sets: Vec<(SetKey, Arc<dyn Counters>)> = self
            .sets
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(key, set)| (key.clone(), Arc::clone(set)))
            .collect();
        let mut rows = Vec::new();
        for ((prefix, server), set) in sets {
            set.visit(&mut |field, value| {
                rows.push(StatRow {
                    name: format!("{prefix}.{field}"),
                    server,
                    value,
                })
            });
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    counters! {
        /// A set with a plain twin.
        struct Probe => ProbeTotals {
            /// Things seen.
            seen,
            /// Things dropped.
            dropped,
        }
    }

    fn row(name: &str, server: Option<u32>, value: u64) -> StatRow {
        StatRow {
            name: name.into(),
            server: server.map(ServerId),
            value,
        }
    }

    #[test]
    fn a_declared_set_starts_at_zero_and_visits_every_field_in_order() {
        let p = Probe::default();
        p.seen.fetch_add(3, Ordering::Relaxed);
        let mut got = Vec::new();
        p.visit(&mut |name, v| got.push((name.to_owned(), v)));
        assert_eq!(got, [("seen".to_owned(), 3), ("dropped".to_owned(), 0)]);
    }

    #[test]
    fn the_plain_twin_copies_adds_and_visits_alike() {
        let p = Probe::default();
        p.seen.fetch_add(2, Ordering::Relaxed);
        p.dropped.fetch_add(5, Ordering::Relaxed);
        let mut t = p.totals();
        assert_eq!(
            t,
            ProbeTotals {
                seen: 2,
                dropped: 5
            }
        );
        t += p.totals();
        let mut got = Vec::new();
        t.visit(&mut |name, v| got.push((name.to_owned(), v)));
        assert_eq!(got, [("seen".to_owned(), 4), ("dropped".to_owned(), 10)]);
    }

    #[test]
    fn the_registry_prefixes_orders_replaces_and_clears() {
        let reg = CounterRegistry::default();
        let (a, b) = (Arc::new(Probe::default()), Arc::new(Probe::default()));
        a.seen.fetch_add(1, Ordering::Relaxed);
        b.seen.fetch_add(7, Ordering::Relaxed);
        reg.register("probe", Some(ServerId(2)), Arc::clone(&b) as _);
        reg.register("probe", Some(ServerId(1)), Arc::clone(&a) as _);
        reg.register("alpha", None, Arc::new(a.totals()));
        assert_eq!(
            reg.snapshot(),
            [
                row("alpha.seen", None, 1),
                row("alpha.dropped", None, 0),
                row("probe.seen", Some(1), 1),
                row("probe.dropped", Some(1), 0),
                row("probe.seen", Some(2), 7),
                row("probe.dropped", Some(2), 0),
            ]
        );
        // A restarted component registers a fresh set under the old key;
        // the snapshot is live, not a copy taken at registration.
        reg.register("probe", Some(ServerId(2)), Arc::new(Probe::default()));
        a.dropped.fetch_add(4, Ordering::Relaxed);
        let rows = reg.snapshot();
        assert_eq!(rows[3], row("probe.dropped", Some(1), 4));
        assert_eq!(rows[4], row("probe.seen", Some(2), 0));
        // Clearing releases the sets.
        reg.clear();
        assert!(reg.snapshot().is_empty());
        assert_eq!(Arc::strong_count(&a), 1);
    }

    /// A set that is the last handle on its owner runs the owner's `Drop`
    /// when it leaves the registry; that must not happen under the lock.
    #[test]
    fn a_replaced_or_cleared_set_is_dropped_outside_the_lock() {
        use std::sync::atomic::AtomicU64;
        struct Owner(Arc<CounterRegistry>, Arc<AtomicU64>);
        impl Counters for Owner {
            fn visit(&self, _: &mut dyn FnMut(&str, u64)) {}
        }
        impl Drop for Owner {
            fn drop(&mut self) {
                let unlocked = self.0.sets.try_write().is_ok();
                self.1.fetch_add(u64::from(unlocked), Ordering::Relaxed);
            }
        }
        let (reg, free_drops) = (Arc::new(CounterRegistry::default()), Arc::default());
        let owner = || Arc::new(Owner(Arc::clone(&reg), Arc::clone(&free_drops)));
        reg.register("owner", None, owner());
        reg.register("owner", None, owner());
        assert_eq!(free_drops.load(Ordering::Relaxed), 1, "replaced under lock");
        reg.clear();
        assert_eq!(free_drops.load(Ordering::Relaxed), 2, "cleared under lock");
    }
}
