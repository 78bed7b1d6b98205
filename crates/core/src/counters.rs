//! Counter sets declared once.
//!
//! `counter_set!` takes a documented struct whose fields are each tagged
//! with how two reports combine: `sum` or `max` for an integer counter,
//! `nested` for an embedded counter set, which merges through its own
//! `merge`. From that one field list it emits the struct, `merge`, a walk
//! over the integer counters as `(name, value)` pairs in declaration order
//! (`counters`), and a `Display` built from that walk: `{value} {name}`
//! with the name's underscores read as spaces, `, `-separated, then every
//! nested set that is not all zeros as `{name}: {set}`.

macro_rules! counter_set {
    (@merge sum $a:expr, $b:expr) => { $a += $b };
    (@merge max $a:expr, $b:expr) => { $a = $a.max($b) };
    (@merge nested $a:expr, $b:expr) => { $a.merge(&$b) };
    (@counter nested $name:ident $value:expr) => { None };
    (@counter $rule:ident $name:ident $value:expr) => {
        Some((stringify!($name), $value as u64))
    };
    (@nested nested $f:ident $sep:ident $name:ident $value:expr) => {
        if $value != Default::default() {
            write!($f, "{}{}: {}", $sep, stringify!($name), $value)?;
        }
    };
    (@nested $rule:ident $f:ident $sep:ident $name:ident $value:expr) => {};
    (
        $(#[$meta:meta])*
        pub struct $set:ident {
            $(
                $(#[$field_meta:meta])*
                $rule:ident $field:ident: $ty:ty,
            )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $set {
            $(
                $(#[$field_meta])*
                pub $field: $ty,
            )*
        }

        impl $set {
            /// Folds `other` into this report: each counter by its own
            /// rule (sum or maximum), each nested set by its `merge`.
            pub fn merge(&mut self, other: &$set) {
                $(counter_set!(@merge $rule self.$field, other.$field);)*
            }

            /// The integer counters as `(name, value)` pairs, in declaration
            /// order. Nested sets are walked by their own `counters`.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$(counter_set!(@counter $rule $field self.$field)),*]
                    .into_iter()
                    .flatten()
            }
        }

        impl std::fmt::Display for $set {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                let mut sep = "";
                for (name, value) in self.counters() {
                    write!(f, "{sep}{value} {}", name.replace('_', " "))?;
                    sep = ", ";
                }
                $(counter_set!(@nested $rule f sep $field self.$field);)*
                Ok(())
            }
        }
    };
}
