//! Counter groups, each declared once by [`counter_group!`]: whatever
//! lists, parses, sums or publishes counters walks the declaration, and
//! a [`StatsCell`] carries one group from its single writer to any
//! number of live readers.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// A group of counters, walked in declaration order.
pub trait CounterGroup: Copy + Default {
    /// How many counters the group holds.
    const LEN: usize;
    /// The counter names, in declaration order.
    fn names() -> impl Iterator<Item = &'static str>;
    /// The counter values, in declaration order.
    fn values(&self) -> impl Iterator<Item = u64>;
    /// The group holding `values` in declaration order (missing ones read 0).
    fn from_values(values: impl IntoIterator<Item = u64>) -> Self;

    /// `(name, value)` pairs in declaration order.
    fn pairs(&self) -> impl Iterator<Item = (&'static str, u64)> {
        Self::names().zip(self.values())
    }

    /// The group as one flat JSON object, `{"name":value,...}`.
    fn to_json(&self) -> String {
        let fields: Vec<String> = self.pairs().map(|(n, v)| format!("\"{n}\":{v}")).collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// An `f64` as a JSON number that parses back exactly: its shortest
/// round-tripping form, always with a `.0` or an exponent. JSON has no
/// infinities or NaN: they become `null`, which a reader expecting a
/// number refuses rather than misreads.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Declares a counter group: a `Copy` snapshot struct with one public
/// `u64` or `usize` field per counter, its [`CounterGroup`] impl, and one
/// `usize` constant per counter, named like its field, holding its
/// declaration index (for storage indexed by the declaration).
#[macro_export]
macro_rules! counter_group {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($(#[$doc:meta])* $field:ident: $ty:ty,)*
    }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        $vis struct $name { $($(#[$doc])* pub $field: $ty,)* }

        impl $crate::CounterGroup for $name {
            const LEN: usize = [$(stringify!($field)),*].len();
            fn names() -> impl Iterator<Item = &'static str> {
                [$(stringify!($field)),*].into_iter()
            }
            fn values(&self) -> impl Iterator<Item = u64> {
                [$(u64::try_from(self.$field).unwrap_or(u64::MAX)),*].into_iter()
            }
            fn from_values(values: impl IntoIterator<Item = u64>) -> Self {
                let mut values = values.into_iter();
                $name {$($field: <$ty>::try_from(values.next().unwrap_or(0)).unwrap_or(<$ty>::MAX),)*}
            }
        }

        const _: () = {
            #[allow(non_camel_case_types)]
            enum Index { $($field),* }
            #[allow(dead_code, non_upper_case_globals)]
            impl $name {$(
                #[doc = concat!("Declaration index of `", stringify!($field), "`.")]
                pub const $field: usize = Index::$field as usize;
            )*}
        };
    };
}

/// A single-writer, many-reader seqlock over one counter group, from
/// plain atomics (no locks on either side): the writer bumps `seq` to odd,
/// stores every slot and bumps it back to even; a reader retries until it
/// sees the same even `seq` on both sides of its slot reads, so a snapshot
/// never mixes two publications.
#[derive(Debug)]
pub struct StatsCell<G> {
    seq: AtomicU64,
    slots: Box<[AtomicU64]>,
    group: PhantomData<G>,
}

impl<G: CounterGroup> StatsCell<G> {
    /// A cell holding `initial` until the first publication.
    pub fn new(initial: G) -> StatsCell<G> {
        let slots = initial.values().map(AtomicU64::new).collect();
        StatsCell { seq: AtomicU64::new(0), slots, group: PhantomData }
    }

    /// One store per counter, plus two. Single writer: a second one would
    /// break the odd/even discipline.
    pub fn publish(&self, stats: &G) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::SeqCst); // odd: write in progress
        for (slot, value) in self.slots.iter().zip(stats.values()) {
            slot.store(value, Ordering::SeqCst);
        }
        self.seq.store(s.wrapping_add(2), Ordering::SeqCst); // even: consistent
    }

    /// The latest publication, whole. Lock-free for the writer; the reader
    /// spins only while a publication is mid-flight.
    pub fn snapshot(&self) -> G {
        loop {
            let before = self.seq.load(Ordering::SeqCst);
            if before % 2 == 0 {
                let stats = G::from_values(self.slots.iter().map(|s| s.load(Ordering::SeqCst)));
                if self.seq.load(Ordering::SeqCst) == before {
                    return stats;
                }
            }
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::counter_group! {
        struct Triple {
            a: u64,
            b: u64,
            c: usize,
        }
    }

    #[test]
    fn json_f64_stays_a_number_and_parses_back_exactly() {
        let (mut samples, mut x) = (vec![0.0, -0.0, 40_000.0, 9_999_999_999_999_998.0], 1e-4f64);
        while x < 1e16 {
            samples.extend([x, x * 1.618_033_988_75, x + 0.5, (x * 7.0).round()]);
            x *= 3.7;
        }
        for v in samples {
            let json = json_f64(v);
            assert_eq!(json.parse::<f64>(), Ok(v), "{json}");
            // `Display` with `.0` where it prints an integer, in the range
            // served prices take: what the HTTP API wrote.
            let display = format!("{v}");
            let point = if display.contains('.') { display } else { display + ".0" };
            assert!(json == point || !(v == 0.0 || (1e-4..1e16).contains(&v.abs())), "{v}: {json}");
        }
        assert_eq!([json_f64(1e16), json_f64(1e-5)], ["1e16", "1e-5"]);
        assert!([f64::NAN, f64::INFINITY, -f64::INFINITY].iter().all(|&v| json_f64(v) == "null"));
    }

    #[test]
    fn stats_cell_snapshots_are_coherent_under_concurrent_publication() {
        // The writer publishes values whose fields are all equal; a torn
        // read would surface as a snapshot mixing two publications.
        let cell = std::sync::Arc::new(StatsCell::new(Triple::default()));
        let writer = {
            let cell = cell.clone();
            std::thread::spawn(move || {
                for i in 0..20_000u64 {
                    cell.publish(&Triple::from_values(std::iter::repeat(i)));
                }
            })
        };
        let mut last = 0;
        for _ in 0..20_000 {
            let s = cell.snapshot();
            assert!(s.values().all(|v| v == s.a), "torn snapshot: {s:?}");
            assert!(s.a >= last, "publications observed out of order");
            last = s.a;
        }
        writer.join().expect("writer");
        assert_eq!(cell.snapshot().values().collect::<Vec<_>>(), [19_999; Triple::LEN]);
    }
}
