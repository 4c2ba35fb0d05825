//! The `Wire` trait: everything a message type needs to travel through any
//! codec, plus helpers shared by the IE conversions.

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
}

// --- conversion helpers (shared by all message modules) --------------------

/// Error for a malformed field during `from_value`.
pub(crate) fn field_err(msg: &str, field: &str) -> Error {
    Error::schema(format!("{msg}: bad field `{field}`"))
}

/// Extracts struct fields, checking arity.
pub(crate) fn fields<'v>(v: &'v Value, msg: &str, arity: usize) -> Result<&'v [Value]> {
    let fs = v
        .as_struct()
        .ok_or_else(|| Error::schema(format!("{msg}: not a struct")))?;
    if fs.len() != arity {
        return Err(Error::schema(format!(
            "{msg}: expected {arity} fields, got {}",
            fs.len()
        )));
    }
    Ok(fs)
}

pub(crate) fn get_u64(v: &Value, msg: &str, field: &str) -> Result<u64> {
    match v {
        Value::U64(x) => Ok(*x),
        _ => Err(field_err(msg, field)),
    }
}

pub(crate) fn get_u32(v: &Value, msg: &str, field: &str) -> Result<u32> {
    u32::try_from(get_u64(v, msg, field)?).map_err(|_| field_err(msg, field))
}

pub(crate) fn get_u16(v: &Value, msg: &str, field: &str) -> Result<u16> {
    u16::try_from(get_u64(v, msg, field)?).map_err(|_| field_err(msg, field))
}

pub(crate) fn get_u8(v: &Value, msg: &str, field: &str) -> Result<u8> {
    u8::try_from(get_u64(v, msg, field)?).map_err(|_| field_err(msg, field))
}

pub(crate) fn get_bool(v: &Value, msg: &str, field: &str) -> Result<bool> {
    match v {
        Value::Bool(b) => Ok(*b),
        _ => Err(field_err(msg, field)),
    }
}

pub(crate) fn get_bytes<'v>(v: &'v Value, msg: &str, field: &str) -> Result<&'v [u8]> {
    match v {
        Value::Bytes(b) => Ok(b),
        _ => Err(field_err(msg, field)),
    }
}

pub(crate) fn get_str<'v>(v: &'v Value, msg: &str, field: &str) -> Result<&'v str> {
    match v {
        Value::Str(s) => Ok(s),
        _ => Err(field_err(msg, field)),
    }
}

pub(crate) fn get_bits<'v>(v: &'v Value, msg: &str, field: &str) -> Result<&'v [bool]> {
    match v {
        Value::Bits(b) => Ok(b),
        _ => Err(field_err(msg, field)),
    }
}

pub(crate) fn get_list<'v>(v: &'v Value, msg: &str, field: &str) -> Result<&'v [Value]> {
    match v {
        Value::List(items) => Ok(items),
        _ => Err(field_err(msg, field)),
    }
}

pub(crate) fn get_opt<'v>(v: &'v Value, msg: &str, field: &str) -> Result<Option<&'v Value>> {
    match v {
        Value::Optional(opt) => Ok(opt.as_deref()),
        _ => Err(field_err(msg, field)),
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
