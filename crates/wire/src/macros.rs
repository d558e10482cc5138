//! `wire_struct!` / `wire_enum!`: declarative [`Wire`](crate::Wire) impls.
//!
//! The invocation repeats the type's field (or variant) list next to its
//! plain Rust definition. The generated code destructures and rebuilds the
//! type exhaustively, so a field or variant missing from the list is a
//! compile error, not a silent wire gap.
//!
//! ```
//! use charm_wire::{wire_enum, wire_struct};
//!
//! struct Ghost { iter: u32, data: Vec<f64> }
//! wire_struct! { Ghost { iter, data } }
//!
//! struct Meters(f64);
//! wire_struct! { Meters(m) }
//!
//! enum Msg { Start, Ghost(Ghost), Done { residual: f64 }, Pair(i32, String) }
//! wire_enum! { Msg { Start, Ghost(g), Done { residual }, Pair(a, b) } }
//!
//! enum Ctl { Stop, Pause { ms: u64 } }
//! enum Cmd { Go, Ctl(Ctl) }
//! wire_enum! { Cmd { Go, Halt = Ctl(Ctl::Stop), Wait = Ctl(Ctl::Pause) { ms } } }
//! ```
//!
//! Tuple fields are named by arbitrary binders (`m`, `g`, `a`, `b` above).
//! A one-field tuple struct or variant is transparent (encodes as its
//! field); a unit struct is written `wire_struct! { Marker {} }`. A variant
//! may live one enum down: `Halt = Ctl(Ctl::Stop)` travels as `Cmd`'s own
//! variant `Halt` (its place in the list, its name) with `Ctl::Stop`'s
//! payload, so nesting the Rust type leaves the wire form flat.

/// Implement [`Wire`](crate::Wire) for a struct; see the [module docs](self).
#[macro_export]
macro_rules! wire_struct {
    ($name:ident { $($f:ident),* $(,)? }) => {
        impl $crate::Wire for $name {
            fn encode<WireW: $crate::Writer>(&self, w: &mut WireW) {
                let $name { $($f),* } = self;
                $crate::__wire_put_fields!(w, stringify!($name); $($f),*);
            }
            fn decode<WireR: $crate::Reader>(r: &mut WireR) -> $crate::Result<Self> {
                Ok($crate::__wire_get_fields!(r, stringify!($name), $name; $($f),*))
            }
        }
    };
    ($name:ident ( $($t:ident),+ $(,)? )) => {
        impl $crate::Wire for $name {
            fn encode<WireW: $crate::Writer>(&self, w: &mut WireW) {
                let $name($($t),+) = self;
                $crate::__wire_put_payload!(w, stringify!($name); ($($t),+));
            }
            fn decode<WireR: $crate::Reader>(r: &mut WireR) -> $crate::Result<Self> {
                Ok($crate::__wire_get_payload!(r, stringify!($name), $name; ($($t),+)))
            }
        }
    };
}

/// Implement [`Wire`](crate::Wire) for an enum; see the [module docs](self).
#[macro_export]
macro_rules! wire_enum {
    ($name:ident {
        $( $v:ident $( = $o:ident ( $i:ident :: $iv:ident ) )?
           $( ( $($t:ident),+ $(,)? ) )? $( { $($f:ident),* $(,)? } )? ),* $(,)?
    }) => {
        impl $crate::Wire for $name {
            fn encode<WireW: $crate::Writer>(&self, w: &mut WireW) {
                #[allow(dead_code, reason = "a variant the invocation never names")]
                enum Ix { $($v),* }
                match self {
                    $( $crate::__wire_variant!(
                        $name $v [$($o $i $iv)?] $( ( $($t),+ ) )? $( { $($f),* } )?
                    ) => {
                        w.begin_variant(stringify!($name), Ix::$v as u32, stringify!($v));
                        $crate::__wire_put_payload!(
                            w, stringify!($v); $( ( $($t),+ ) )? $( { $($f),* } )?
                        );
                    } )*
                }
            }
            fn decode<WireR: $crate::Reader>(r: &mut WireR) -> $crate::Result<Self> {
                #[allow(dead_code, reason = "a variant the invocation never names")]
                enum Ix { $($v),* }
                const VARIANTS: &[&str] = &[$(stringify!($v)),*];
                let ix = r.variant(stringify!($name), VARIANTS)?;
                $( if ix == Ix::$v as u32 {
                    return Ok($crate::__wire_get_variant!(
                        r, $name $v [$($o $i $iv)?] $( ( $($t),+ ) )? $( { $($f),* } )?
                    ));
                } )*
                Err($crate::WireError::InvalidLength(ix as u64))
            }
        }
    };
}

/// The pattern of a variant, at the top or one enum down.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_variant {
    ($name:ident $v:ident [] $($p:tt)?) => { $name::$v $($p)? };
    ($name:ident $v:ident [$o:ident $i:ident $iv:ident] $($p:tt)?) => { $name::$o($i::$iv $($p)?) };
}

/// Decode a variant's payload, at the top or one enum down.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_get_variant {
    ($r:ident, $name:ident $v:ident [] $($p:tt)?) => {
        $crate::__wire_get_payload!($r, stringify!($v), $name::$v; $($p)?)
    };
    ($r:ident, $name:ident $v:ident [$o:ident $i:ident $iv:ident] $($p:tt)?) => {
        $name::$o($crate::__wire_get_payload!($r, stringify!($v), $i::$iv; $($p)?))
    };
}

/// Encode a unit / one-field / tuple / struct payload (bindings in scope).
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_put_payload {
    ($w:ident, $name:expr;) => {
        $w.put_unit();
    };
    ($w:ident, $name:expr; ($a:ident)) => {
        $crate::Wire::encode($a, $w);
    };
    ($w:ident, $name:expr; ($($t:ident),+)) => {
        $w.begin_tuple(<[&str]>::len(&[$(stringify!($t)),+]));
        $( $crate::Wire::encode($t, $w); )+
    };
    ($w:ident, $name:expr; { $($f:ident),* }) => {
        $crate::__wire_put_fields!($w, $name; $($f),*);
    };
}

/// Decode a unit / one-field / tuple / struct payload into `$ctor`.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_get_payload {
    ($r:ident, $name:expr, $ctor:path;) => {{
        $r.get_unit()?;
        $ctor
    }};
    ($r:ident, $name:expr, $ctor:path; ($a:ident)) => {
        $ctor($crate::Wire::decode($r)?)
    };
    ($r:ident, $name:expr, $ctor:path; ($($t:ident),+)) => {{
        $r.begin_tuple(<[&str]>::len(&[$(stringify!($t)),+]))?;
        $( let $t = $crate::Wire::decode($r)?; )+
        $ctor($($t),+)
    }};
    ($r:ident, $name:expr, $ctor:path; { $($f:ident),* }) => {
        $crate::__wire_get_fields!($r, $name, $ctor; $($f),*)
    };
}

/// Encode named fields (bound by reference under their own names).
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_put_fields {
    ($w:ident, $name:expr; $($f:ident),*) => {
        $w.begin_struct($name, <[&str]>::len(&[$(stringify!($f)),*]));
        $(
            $w.field(stringify!($f));
            $crate::Wire::encode($f, $w);
        )*
    };
}

/// Decode named fields into `$ctor { .. }`: positional under the compact
/// reader, by name (any order, unknown names skipped) under the
/// self-describing one — the reader's `field` decides.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_get_fields {
    ($r:ident, $name:expr, $ctor:path; $($f:ident),*) => {{
        #[allow(non_camel_case_types, dead_code, reason = "variants are the field names")]
        enum Ix { $($f),* }
        const FIELDS: &[&str] = &[$(stringify!($f)),*];
        $( let mut $f = None; )*
        for i in 0..$r.begin_struct($name, FIELDS)? {
            match $r.field(i, FIELDS)? {
                $( Some(x) if x == Ix::$f as usize => {
                    $f = Some($crate::Wire::decode($r)?);
                } )*
                _ => {}
            }
        }
        $ctor { $( $f: $f.ok_or($crate::WireError::MissingField(stringify!($f)))? ),* }
    }};
}
