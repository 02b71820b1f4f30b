//! Counter groups, each declared once by [`counter_group!`]: whatever
//! lists, parses, sums or publishes counters walks the declaration.

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
