//! Instrument tables: every number the server reports is defined once.
//!
//! A layer declares its instruments as rows of one [`instruments!`] table —
//! doc, name, kind (`sum` | `max` | `histogram`) and wire key:
//!
//! ```text
//! /// Scheduling quanta served.
//! quanta: sum = "quanta",
//! ```
//!
//! From the rows the macro derives the **live** struct (one relaxed
//! [`AtomicU64`](std::sync::atomic::AtomicU64) or one lock-free
//! [`Histogram`] per row, a plain field the hot path bumps directly — no
//! name lookup, no map, no lock), the public **report** struct(s) (`u64` /
//! [`HistogramSnapshot`] fields of the same names) and two [`Row`] tables
//! tying each live field to its report field. Everything else — the
//! snapshot, cross-shard aggregation, the `Value` codec behind
//! `MuxFrame::Stats` and the plain-text rendering — is the handful of
//! generic functions below walking those rows, so adding an instrument is
//! a one-row diff.
//!
//! The kind says how two readings combine: `sum` adds, `max` keeps the
//! larger, `histogram` merges bucket-wise.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use zooid_proc::Value;

/// The reported form of one instrument kind (`u64` for `sum`/`max` rows,
/// [`HistogramSnapshot`](crate::obs::HistogramSnapshot) for `histogram`
/// rows), with the live type it is read from.
pub(crate) trait Cell: fmt::Display + Sized {
    /// What the owning thread updates.
    type Live;
    /// A point-in-time reading.
    fn load(live: &Self::Live) -> Self;
    /// The codec form carried by a `StatsReply`.
    fn to_value(&self) -> Value;
    /// Inverse of [`Cell::to_value`]; `None` on any other shape.
    fn from_value(value: &Value) -> Option<Self>;
}

impl Cell for u64 {
    type Live = AtomicU64;

    fn load(live: &AtomicU64) -> u64 {
        live.load(Ordering::Relaxed)
    }

    fn to_value(&self) -> Value {
        Value::Nat(*self)
    }

    fn from_value(value: &Value) -> Option<u64> {
        match value {
            Value::Nat(n) => Some(*n),
            _ => None,
        }
    }
}

/// One row of an instrument table, seen from its live struct `L` and its
/// report struct `R`.
pub(crate) struct Row<L: 'static, R: 'static, C: Cell + 'static> {
    /// The field name: what the rendering and the accessors call it.
    pub(crate) name: &'static str,
    /// The key it travels under in a `StatsReply`.
    pub(crate) key: &'static str,
    pub(crate) live: fn(&L) -> &C::Live,
    pub(crate) get: fn(&R) -> &C,
    pub(crate) slot: fn(&mut R) -> &mut C,
    /// Folds a second reading into the first, per the row's kind.
    pub(crate) merge: fn(&mut C, &C),
}

/// Folds `live`'s current readings into `report`: a snapshot when the report
/// is fresh, cross-shard aggregation when it already holds other shards'.
pub(crate) fn read_into<L, R, C: Cell>(rows: &[Row<L, R, C>], live: &L, report: &mut R) {
    for row in rows {
        (row.merge)((row.slot)(report), &C::load((row.live)(live)));
    }
}

/// One `(key, value)` field of a codec record. A record is a `Seq` of these
/// pairs, so the encoding is versionable (a new row is a new key) and needs
/// no schema beyond the codec itself.
pub(crate) fn entry(key: &str, value: Value) -> Value {
    Value::pair(Value::Str(key.to_owned()), value)
}

/// Looks a key up in a codec record.
pub(crate) fn field<'a>(record: &'a Value, key: &str) -> Option<&'a Value> {
    let Value::Seq(fields) = record else {
        return None;
    };
    fields.iter().find_map(|f| match f {
        Value::Pair(k, v) if matches!(&**k, Value::Str(s) if s == key) => Some(&**v),
        _ => None,
    })
}

/// Appends one record field per row.
pub(crate) fn encode<L, R, C: Cell>(rows: &[Row<L, R, C>], report: &R, fields: &mut Vec<Value>) {
    fields.extend(
        rows.iter()
            .map(|row| entry(row.key, (row.get)(report).to_value())),
    );
}

/// Fills every row from `record`; `None` if one is missing or malformed.
pub(crate) fn decode<L, R, C: Cell>(
    rows: &[Row<L, R, C>],
    record: &Value,
    report: &mut R,
) -> Option<()> {
    for row in rows {
        *(row.slot)(report) = C::from_value(field(record, row.key)?)?;
    }
    Some(())
}

/// Writes one `layer.name reading` line per row — the plain-text scrape.
pub(crate) fn render<L, R, C: Cell>(
    rows: &[Row<L, R, C>],
    layer: &str,
    report: &R,
    f: &mut fmt::Formatter<'_>,
) -> fmt::Result {
    for row in rows {
        writeln!(f, "{layer}.{} {}", row.name, (row.get)(report))?;
    }
    Ok(())
}

/// Declares one layer's instrument table; see the module docs.
///
/// ```text
/// instruments! {
///     [
///         live Live { extra live fields }
///         report Report { extra report fields }
///     ]
///     rows…
/// }
/// ```
///
/// A layer whose counters are reported per shard and whose histograms are
/// reported merged names two report structs instead
/// (`counters PerShard { … } histograms Merged { … }`) and the struct that
/// holds the per-shard reports (`totals Aggregate.field`), which gets one
/// cross-shard accessor per counter row. Attributes (docs, derives) on each
/// header line land on the struct it names; extra fields are the caller's
/// to fill.
macro_rules! instruments {
    // Entry: sort the rows into counters and histograms.
    ([$($head:tt)*] $($rows:tt)*) => {
        instruments!(@sort [$($head)*] [] [] $($rows)*);
    };
    (@sort $head:tt [$($c:tt)*] [$($h:tt)*]
        $(#[$doc:meta])* $name:ident: histogram = $key:literal, $($rest:tt)*
    ) => {
        instruments!(@sort $head [$($c)*] [$($h)* $(#[$doc])* $name $key;] $($rest)*);
    };
    (@sort $head:tt [$($c:tt)*] [$($h:tt)*]
        $(#[$doc:meta])* $name:ident: $kind:ident = $key:literal, $($rest:tt)*
    ) => {
        instruments!(@sort $head [$($c)* $(#[$doc])* $name $kind $key;] [$($h)*] $($rest)*);
    };
    (@sort $head:tt $c:tt $h:tt) => {
        instruments!(@emit $head $c $h);
    };

    // One report struct holding every row.
    (@emit [
        $(#[$lm:meta])* live $Live:ident { $($lx:tt)* }
        $(#[$rm:meta])* report $R:ident { $($rx:tt)* }
    ]
        [$($(#[$cd:meta])* $c:ident $ck:ident $ckey:literal;)*]
        [$($(#[$hd:meta])* $h:ident $hkey:literal;)*]
    ) => {
        $(#[$rm])*
        pub struct $R {
            $($(#[$cd])* pub $c: u64,)*
            $($(#[$hd])* pub $h: $crate::obs::HistogramSnapshot,)*
            $($rx)*
        }
        instruments!(@live [$(#[$lm])* $Live { $($lx)* }] $R $R
            [$($(#[$cd])* $c $ck $ckey;)*] [$($(#[$hd])* $h $hkey;)*]);
    };

    // Counters reported per shard, histograms reported merged.
    (@emit [
        $(#[$lm:meta])* live $Live:ident { $($lx:tt)* }
        $(#[$cm:meta])* counters $CR:ident { $($cx:tt)* }
        $(#[$hm:meta])* histograms $HR:ident { $($hx:tt)* }
        totals $T:ident . $shards:ident
    ]
        [$($(#[$cd:meta])* $c:ident $ck:ident $ckey:literal;)*]
        [$($(#[$hd:meta])* $h:ident $hkey:literal;)*]
    ) => {
        $(#[$cm])*
        pub struct $CR {
            $($cx)*
            $($(#[$cd])* pub $c: u64,)*
        }
        $(#[$hm])*
        pub struct $HR {
            $($(#[$hd])* pub $h: $crate::obs::HistogramSnapshot,)*
            $($hx)*
        }
        impl $T {
            $(
                /// Across all shards (added up for a `sum` row, the largest
                /// for a `max` row):
                ///
                $(#[$cd])*
                pub fn $c(&self) -> u64 {
                    let merge: fn(&mut u64, &u64) = instruments!(@merge $ck);
                    let mut total = 0;
                    for shard in &self.$shards {
                        merge(&mut total, &shard.$c);
                    }
                    total
                }
            )*
            /// Every cross-shard accessor above, by row name.
            pub(crate) const TOTALS: &'static [(&'static str, fn(&$T) -> u64)] =
                &[$((stringify!($c), $T::$c),)*];
        }
        instruments!(@live [$(#[$lm])* $Live { $($lx)* }] $CR $HR
            [$($(#[$cd])* $c $ck $ckey;)*] [$($(#[$hd])* $h $hkey;)*]);
    };

    // The live struct and the row tables tying it to the report struct(s).
    (@live [$(#[$lm:meta])* $Live:ident { $($lx:tt)* }] $CR:ident $HR:ident
        [$($(#[$cd:meta])* $c:ident $ck:ident $ckey:literal;)*]
        [$($(#[$hd:meta])* $h:ident $hkey:literal;)*]
    ) => {
        $(#[$lm])*
        #[derive(Debug, Default)]
        pub struct $Live {
            $($(#[$cd])* pub $c: ::std::sync::atomic::AtomicU64,)*
            $($(#[$hd])* pub $h: $crate::obs::Histogram,)*
            $($lx)*
        }
        // A table need not have rows of both kinds.
        #[allow(dead_code)]
        impl $Live {
            pub(crate) const COUNTERS: &'static [$crate::instruments::Row<$Live, $CR, u64>] = &[$(
                $crate::instruments::Row {
                    name: stringify!($c),
                    key: $ckey,
                    live: |l| &l.$c,
                    get: |r| &r.$c,
                    slot: |r| &mut r.$c,
                    merge: instruments!(@merge $ck),
                },
            )*];
            pub(crate) const HISTOGRAMS: &'static [$crate::instruments::Row<
                $Live,
                $HR,
                $crate::obs::HistogramSnapshot,
            >] = &[$(
                $crate::instruments::Row {
                    name: stringify!($h),
                    key: $hkey,
                    live: |l| &l.$h,
                    get: |r| &r.$h,
                    slot: |r| &mut r.$h,
                    merge: $crate::obs::HistogramSnapshot::merge,
                },
            )*];
        }
    };

    (@merge sum) => { |a, b| *a += *b };
    (@merge max) => { |a, b| *a = (*a).max(*b) };
}
pub(crate) use instruments;
