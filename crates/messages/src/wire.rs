//! The `Wire` trait: everything a message type needs to travel through any
//! codec, and `wire_struct!`, the one declaration a message's struct, schema
//! and value conversions are generated from.

use neutrino_codec::value::{FieldType, Schema, Value};
use neutrino_codec::WireFormat;
use neutrino_common::{Error, Result};
use std::sync::Arc;

/// A message (or IE) with a schema, value conversion, and a realistic sample.
pub trait Wire: Sized {
    /// The message's schema (shared, built once).
    fn schema() -> Arc<Schema>;

    /// Converts to the codec value model. The result always validates
    /// against [`Wire::schema`].
    fn to_value(&self) -> Value;

    /// Parses back from a value produced by any codec's decode.
    fn from_value(v: &Value) -> Result<Self>;

    /// A realistic sample instance (field contents modeled on real traces)
    /// for calibration and benchmarks. `seed` varies the contents.
    fn sample(seed: u64) -> Self;

    /// Encodes through a codec.
    fn encode(&self, codec: &dyn WireFormat, out: &mut Vec<u8>) -> Result<()> {
        codec.encode(&Self::schema(), &self.to_value(), out)
    }

    /// Decodes through a codec.
    fn decode(codec: &dyn WireFormat, bytes: &[u8]) -> Result<Self> {
        Self::from_value(&codec.decode(&Self::schema(), bytes)?)
    }

    /// The type as a nested field of another schema.
    fn field_type() -> FieldType {
        FieldType::Struct(Self::schema())
    }
}

// --- the one field table ----------------------------------------------------

/// Declares a wire type once: the struct, and from the same field list its
/// schema (named after the struct and its fields), `to_value`, and
/// `from_value` with the arity check.
///
/// ```text
/// wire_struct! {
///     /// Doc.
///     #[derive(Debug, Clone, PartialEq, Eq)]
///     pub struct Name {
///         /// Doc.
///         pub field: RustType = FieldType-expression,
///     }
///     fn sample(seed) { Name { field: .. } }
/// }
/// ```
///
/// Each `RustType` must be a [`WireField`], whose `Value` shape must be the
/// one the field's `FieldType` describes.
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident : $ty:ty = $ft:expr ),+ $(,)?
        }
        fn sample($seed:ident) $sample:block
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )+
        }

        impl $crate::wire::Wire for $name {
            fn schema() -> ::std::sync::Arc<::neutrino_codec::value::Schema> {
                static SCHEMA: ::std::sync::OnceLock<
                    ::std::sync::Arc<::neutrino_codec::value::Schema>,
                > = ::std::sync::OnceLock::new();
                SCHEMA
                    .get_or_init(|| {
                        ::std::sync::Arc::new(
                            ::neutrino_codec::value::StructSchema::builder(stringify!($name))
                                $( .field(stringify!($field), $ft) )+
                                .build(),
                        )
                    })
                    .clone()
            }

            fn to_value(&self) -> ::neutrino_codec::value::Value {
                ::neutrino_codec::value::Value::Struct(vec![
                    $( $crate::wire::WireField::to_field(&self.$field), )+
                ])
            }

            fn from_value(v: &::neutrino_codec::value::Value) -> ::neutrino_common::Result<Self> {
                const M: &str = stringify!($name);
                let [$($field),+] = $crate::wire::fields(v, M)?;
                Ok($name {
                    $( $field: $crate::wire::WireField::from_field(
                        $field, M, stringify!($field),
                    )?, )+
                })
            }

            fn sample($seed: u64) -> Self $sample
        }
    };
}
pub(crate) use wire_struct;

/// A Rust type that can sit in a wire struct's field: its `Value` shape.
pub(crate) trait WireField: Sized {
    /// The field's value.
    fn to_field(&self) -> Value;

    /// Parses the field `field` of message `msg` (both only name the error).
    fn from_field(v: &Value, msg: &str, field: &str) -> Result<Self>;
}

/// Error for a malformed field during `from_value`.
pub(crate) fn field_err(msg: &str, field: &str) -> Error {
    Error::schema(format!("{msg}: bad field `{field}`"))
}

/// Extracts struct fields, checking arity (`N`, usually inferred from the
/// pattern the caller destructures into).
pub(crate) fn fields<'v, const N: usize>(v: &'v Value, msg: &str) -> Result<&'v [Value; N]> {
    let fs = v
        .as_struct()
        .ok_or_else(|| Error::schema(format!("{msg}: not a struct")))?;
    fs.try_into()
        .map_err(|_| Error::schema(format!("{msg}: expected {N} fields, got {}", fs.len())))
}

macro_rules! uint_wire_field {
    ($($t:ty),+) => {$(
        impl WireField for $t {
            fn to_field(&self) -> Value {
                Value::U64(u64::from(*self))
            }

            fn from_field(v: &Value, msg: &str, field: &str) -> Result<Self> {
                match v {
                    Value::U64(x) => <$t>::try_from(*x).map_err(|_| field_err(msg, field)),
                    _ => Err(field_err(msg, field)),
                }
            }
        }
    )+};
}
uint_wire_field!(u8, u16, u32);

/// A leaf whose `Value` variant holds the Rust type itself.
macro_rules! leaf_wire_field {
    ($($t:ty => $variant:ident),+ $(,)?) => {$(
        impl WireField for $t {
            fn to_field(&self) -> Value {
                Value::$variant(self.clone())
            }

            fn from_field(v: &Value, msg: &str, field: &str) -> Result<Self> {
                match v {
                    Value::$variant(x) => Ok(x.clone()),
                    _ => Err(field_err(msg, field)),
                }
            }
        }
    )+};
}
leaf_wire_field!(u64 => U64, bool => Bool, Vec<u8> => Bytes, Vec<bool> => Bits, String => Str);

impl<T: WireField> WireField for Option<T> {
    fn to_field(&self) -> Value {
        match self {
            Some(x) => Value::some(x.to_field()),
            None => Value::none(),
        }
    }

    fn from_field(v: &Value, msg: &str, field: &str) -> Result<Self> {
        match v {
            Value::Optional(opt) => opt
                .as_deref()
                .map(|x| T::from_field(x, msg, field))
                .transpose(),
            _ => Err(field_err(msg, field)),
        }
    }
}

impl<T: Wire> WireField for Vec<T> {
    fn to_field(&self) -> Value {
        Value::List(self.iter().map(Wire::to_value).collect())
    }

    fn from_field(v: &Value, msg: &str, field: &str) -> Result<Self> {
        match v {
            Value::List(items) => items.iter().map(|x| T::from_field(x, msg, field)).collect(),
            _ => Err(field_err(msg, field)),
        }
    }
}

/// A nested wire struct; its own parse error is restated under the field
/// that held it, so the outermost message is always named.
impl<T: Wire> WireField for T {
    fn to_field(&self) -> Value {
        self.to_value()
    }

    fn from_field(v: &Value, msg: &str, field: &str) -> Result<Self> {
        T::from_value(v).map_err(|e| Error::schema(format!("{msg}: bad field `{field}`: {e}")))
    }
}

/// Shorthand for an optional field type.
pub(crate) fn optional(inner: FieldType) -> FieldType {
    FieldType::Optional(Box::new(inner))
}

/// Shorthand for a bounded list field type.
pub(crate) fn list_of(elem: FieldType, max: u32) -> FieldType {
    FieldType::List {
        elem: Box::new(elem),
        max: Some(max),
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Round-trip harness shared by the message modules' tests.
    use super::Wire;
    use neutrino_codec::CodecKind;

    /// Round-trips `msg` through every codec that supports its schema and
    /// asserts losslessness.
    pub(crate) fn round_trip_all_codecs<M: Wire + PartialEq + std::fmt::Debug>(msg: &M) {
        let schema = M::schema();
        schema.validate(&msg.to_value()).expect("sample validates");
        for kind in CodecKind::ALL {
            let codec = kind.codec();
            if !codec.supports(&schema) {
                continue;
            }
            let mut buf = Vec::new();
            msg.encode(codec, &mut buf)
                .unwrap_or_else(|e| panic!("{kind} encode failed: {e}"));
            let back = M::decode(codec, &buf)
                .unwrap_or_else(|e| panic!("{kind} decode failed: {e}"));
            assert_eq!(&back, msg, "round trip through {kind}");
            // traverse must agree with decode on every codec
            let t = codec.traverse(&schema, &buf).unwrap();
            assert_eq!(
                t,
                neutrino_codec::checksum_value(&msg.to_value()),
                "traverse checksum through {kind}"
            );
        }
    }
}
