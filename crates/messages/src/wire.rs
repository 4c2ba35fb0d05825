//! The `Wire` trait: everything a message type needs to travel through any
//! codec, and `wire_struct!`, the one declaration a message's struct, schema
//! and field streaming are generated from.

use neutrino_codec::sink::{FieldSink, FieldSource, LIST_RESERVE};
use neutrino_codec::value::{FieldType, Schema, SchemaBuilder, Value, ValueSink, ValueSource};
use neutrino_codec::WireFormat;
use neutrino_common::{Error, Result};
use std::sync::Arc;

/// A message (or IE) with a schema, a field stream in each direction, and a
/// realistic sample.
pub trait Wire: Sized {
    /// The message's schema (shared, built once).
    fn layout() -> &'static Arc<Schema>;

    /// Streams the message into `sink`, field by field in schema order
    /// (`neutrino_codec::sink` has the call order). Every codec's image of
    /// the message is what its sink makes of these calls.
    fn put(&self, sink: &mut dyn FieldSink) -> Result<()>;

    /// Reads the message back out of `src`, in the order [`put`](Self::put)
    /// wrote it. A value outside a field's Rust type is an error naming the
    /// message and the field.
    fn take(src: &mut dyn FieldSource) -> Result<Self>;

    /// A realistic sample instance (field contents modeled on real traces)
    /// for calibration and benchmarks. `seed` varies the contents.
    fn sample(seed: u64) -> Self;

    /// The message's schema.
    fn schema() -> Arc<Schema> {
        Self::layout().clone()
    }

    /// Converts to the codec value model. The result always validates
    /// against [`Wire::schema`].
    fn to_value(&self) -> Value {
        let mut tree = ValueSink::default();
        // A `ValueSink` refuses nothing, so `put` cannot fail into it.
        self.put(&mut tree)
            .and_then(|()| tree.finish())
            .expect("a wire type follows the sink call order")
    }

    /// Parses back from a value produced by any codec's decode.
    fn from_value(v: &Value) -> Result<Self> {
        Self::take(&mut ValueSource::new(v))
    }

    /// Encodes through a codec.
    fn encode(&self, codec: &dyn WireFormat, out: &mut Vec<u8>) -> Result<()> {
        codec.encode_with(Self::layout(), out, &mut |sink| self.put(sink))
    }

    /// Decodes through a codec.
    fn decode(codec: &dyn WireFormat, bytes: &[u8]) -> Result<Self> {
        let mut msg = None;
        codec.decode_with(Self::layout(), bytes, &mut |src| {
            msg = Some(Self::take(src)?);
            Ok(())
        })?;
        msg.ok_or_else(|| Error::schema(format!("{}: nothing decoded", Self::layout().name)))
    }

    /// The type as a nested field of another schema.
    fn field_type() -> FieldType {
        FieldType::Struct(Self::schema())
    }
}

// --- the one field table ----------------------------------------------------

/// Declares a wire type once: the struct, and from the same field list its
/// schema (named after the struct and its fields), `put`, and `take`.
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
/// Each `RustType` must be a [`WireField`] that streams as the shape the
/// field's `FieldType` describes.
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
            fn layout() -> &'static ::std::sync::Arc<::neutrino_codec::value::Schema> {
                static SCHEMA: ::std::sync::OnceLock<
                    ::std::sync::Arc<::neutrino_codec::value::Schema>,
                > = ::std::sync::OnceLock::new();
                SCHEMA.get_or_init(|| {
                    let schema = ::neutrino_codec::value::StructSchema::builder(stringify!($name));
                    $( let schema = <$ty as $crate::wire::WireField>::declare(
                        schema, stringify!($field), $ft,
                    ); )+
                    ::std::sync::Arc::new(schema.build())
                })
            }

            fn put(
                &self,
                sink: &mut dyn ::neutrino_codec::sink::FieldSink,
            ) -> ::neutrino_common::Result<()> {
                let schema = Self::layout();
                sink.begin_struct(schema)?;
                $( $crate::wire::WireField::put_presence(&self.$field, sink)?; )+
                let mut at = 0;
                $(
                    $crate::wire::WireField::put_field(&self.$field, &schema.fields[at].ty, sink)?;
                    at += <$ty as $crate::wire::WireField>::SPAN;
                )+
                let _ = at;
                sink.end_struct()
            }

            fn take(
                src: &mut dyn ::neutrino_codec::sink::FieldSource,
            ) -> ::neutrino_common::Result<Self> {
                const M: &str = stringify!($name);
                let schema = Self::layout();
                src.begin_struct(schema)?;
                $( let $field = <$ty as $crate::wire::WireField>::take_presence(src)?; )+
                let mut at = 0;
                $(
                    let $field = <$ty as $crate::wire::WireField>::take_field(
                        &schema.fields[at].ty, src, $field,
                    )
                    .map_err(|e| $crate::wire::in_field(e, M, stringify!($field)))?;
                    at += <$ty as $crate::wire::WireField>::SPAN;
                )+
                let _ = at;
                src.end_struct()?;
                Ok($name { $($field),+ })
            }

            fn sample($seed: u64) -> Self $sample
        }
    };
}
pub(crate) use wire_struct;

/// A Rust type that can sit in a wire struct's field: how it streams.
pub(crate) trait WireField: Sized {
    /// How many schema fields the type spans: one, unless it flattens.
    const SPAN: usize = 1;

    /// Declares the field `name` of type `ty` in its struct's schema.
    fn declare(schema: SchemaBuilder, name: &str, ty: FieldType) -> SchemaBuilder {
        schema.field(name, ty)
    }

    /// The struct preamble's word on the field; only an `Option` has one.
    fn put_presence(&self, _sink: &mut dyn FieldSink) -> Result<()> {
        Ok(())
    }

    /// Streams the field, declared as `ty`, into `sink`.
    fn put_field(&self, ty: &FieldType, sink: &mut dyn FieldSink) -> Result<()>;

    /// Reads the struct preamble's word on the field.
    fn take_presence(_src: &mut dyn FieldSource) -> Result<bool> {
        Ok(true)
    }

    /// Reads the field, declared as `ty`, out of `src`; `announced` is
    /// what [`take_presence`](Self::take_presence) returned for it.
    fn take_field(ty: &FieldType, src: &mut dyn FieldSource, announced: bool) -> Result<Self>;
}

/// A schema error met while reading `field` of `msg`, restated under both
/// names so the outermost message is always named; a codec's own error
/// (truncated, out of bounds) passes as it is.
pub(crate) fn in_field(e: Error, msg: &str, field: &str) -> Error {
    match e {
        Error::Schema(detail) => Error::schema(format!("{msg}: bad field `{field}`: {detail}")),
        e => e,
    }
}

macro_rules! uint_wire_field {
    ($($t:ty),+) => {$(
        impl WireField for $t {
            fn put_field(&self, ty: &FieldType, sink: &mut dyn FieldSink) -> Result<()> {
                sink.uint(ty, u64::from(*self))
            }

            fn take_field(ty: &FieldType, src: &mut dyn FieldSource, _: bool) -> Result<Self> {
                let x = src.uint(ty)?;
                <$t>::try_from(x).map_err(|_| Error::schema(format!("{x} out of range")))
            }
        }
    )+};
}
uint_wire_field!(u8, u16, u32, u64);

impl WireField for bool {
    fn put_field(&self, _: &FieldType, sink: &mut dyn FieldSink) -> Result<()> {
        sink.bool(*self)
    }

    fn take_field(_: &FieldType, src: &mut dyn FieldSource, _: bool) -> Result<Self> {
        src.bool()
    }
}

/// A leaf the sink takes by reference and the source hands back borrowed.
macro_rules! leaf_wire_field {
    ($($t:ty => $method:ident),+ $(,)?) => {$(
        impl WireField for $t {
            fn put_field(&self, ty: &FieldType, sink: &mut dyn FieldSink) -> Result<()> {
                sink.$method(ty, self)
            }

            fn take_field(ty: &FieldType, src: &mut dyn FieldSource, _: bool) -> Result<Self> {
                Ok(src.$method(ty)?.into())
            }
        }
    )+};
}
leaf_wire_field!(Vec<u8> => bytes, Vec<bool> => bits, String => str);

impl<T: WireField> WireField for Option<T> {
    fn put_presence(&self, sink: &mut dyn FieldSink) -> Result<()> {
        sink.presence(self.is_some())
    }

    fn put_field(&self, ty: &FieldType, sink: &mut dyn FieldSink) -> Result<()> {
        let inner = ty.optional_inner()?;
        sink.optional(inner, self.is_some())?;
        match self {
            Some(x) => x.put_field(inner, sink),
            None => Ok(()),
        }
    }

    fn take_presence(src: &mut dyn FieldSource) -> Result<bool> {
        src.presence()
    }

    fn take_field(ty: &FieldType, src: &mut dyn FieldSource, announced: bool) -> Result<Self> {
        let inner = ty.optional_inner()?;
        if src.optional(inner, announced)? {
            T::take_field(inner, src, true).map(Some)
        } else {
            Ok(None)
        }
    }
}

impl<T: Wire> WireField for Vec<T> {
    fn put_field(&self, ty: &FieldType, sink: &mut dyn FieldSink) -> Result<()> {
        sink.begin_list(ty, self.len())?;
        for item in self {
            item.put(sink)?;
        }
        sink.end_list()
    }

    fn take_field(ty: &FieldType, src: &mut dyn FieldSource, _: bool) -> Result<Self> {
        let len = src.begin_list(ty)?;
        let mut items = Vec::with_capacity(len.min(LIST_RESERVE));
        for _ in 0..len {
            items.push(T::take(src)?);
        }
        src.end_list()?;
        Ok(items)
    }
}

/// A nested wire struct.
impl<T: Wire> WireField for T {
    fn put_field(&self, _: &FieldType, sink: &mut dyn FieldSink) -> Result<()> {
        self.put(sink)
    }

    fn take_field(_: &FieldType, src: &mut dyn FieldSource, _: bool) -> Result<Self> {
        T::take(src)
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
        let value = msg.to_value();
        schema.validate(&value).expect("sample validates");
        assert_eq!(
            &M::from_value(&value).unwrap(),
            msg,
            "through the value model"
        );
        for kind in CodecKind::ALL {
            let codec = kind.codec();
            if !codec.supports(&schema) {
                continue;
            }
            let mut buf = Vec::new();
            msg.encode(codec, &mut buf)
                .unwrap_or_else(|e| panic!("{kind} encode failed: {e}"));
            let back =
                M::decode(codec, &buf).unwrap_or_else(|e| panic!("{kind} decode failed: {e}"));
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
