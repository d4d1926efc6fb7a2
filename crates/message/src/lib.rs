//! # rl-message — a dynamic Protocol-Buffers-style message system
//!
//! The Record Layer represents records as Protocol Buffer messages (§1, §3
//! of the paper): typed fields, nested message types, and repeated fields,
//! serialized with the protobuf wire format. This crate reproduces that
//! substrate from scratch:
//!
//! * **Descriptors** ([`MessageDescriptor`], [`FieldDescriptor`],
//!   [`DescriptorPool`]) describe record types the way compiled `.proto`
//!   files do, including nested message types and enums.
//! * **Dynamic messages** ([`DynamicMessage`]) hold typed field values
//!   validated against a descriptor.
//! * **Wire format** — the actual protobuf encoding (varints, zigzag,
//!   length-delimited submessages), so the schema-evolution behaviour the
//!   paper relies on (§5) holds for real: unknown fields are preserved on
//!   re-serialization, fields added to a schema read back as unset from old
//!   records, and removed fields survive as unknown data.
//! * **Evolution validation** ([`evolution::validate_evolution`]) enforces
//!   the paper's schema-evolution constraints: field numbers are never
//!   reused with different types, record types are never dropped, and field
//!   types never change incompatibly.
//!
//! ## Example
//!
//! ```
//! use rl_message::{DescriptorPool, DynamicMessage, FieldDescriptor, FieldType, MessageDescriptor};
//!
//! let mut pool = DescriptorPool::new();
//! pool.add_message(MessageDescriptor::new("Greeting", vec![
//!     FieldDescriptor::optional("id", 1, FieldType::Int64),
//!     FieldDescriptor::optional("text", 2, FieldType::String),
//! ]).unwrap()).unwrap();
//!
//! let mut msg = DynamicMessage::new(pool.message("Greeting").unwrap());
//! msg.set("id", 7i64).unwrap();
//! msg.set("text", "hello").unwrap();
//!
//! let bytes = msg.encode();
//! let back = DynamicMessage::decode(pool.message("Greeting").unwrap(), &pool, &bytes).unwrap();
//! assert_eq!(msg, back);
//! ```

pub mod descriptor;
pub mod evolution;
pub mod message;
pub mod source;
pub mod value;
pub mod wire;

pub use descriptor::{
    DescriptorPool, EnumDescriptor, FieldDescriptor, FieldLabel, FieldType, MessageDescriptor,
};
pub use evolution::{validate_evolution, EvolutionError};
pub use message::DynamicMessage;
pub use source::{FieldRef, FieldSource, ValueRef, WireMessage};
pub use value::Value;

/// Errors from descriptor validation, message manipulation, and wire
/// encoding/decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The descriptor itself is malformed.
    InvalidDescriptor(String),
    /// A field name or number was not found on the message type.
    UnknownField(String),
    /// A value's type does not match the field's declared type.
    TypeMismatch {
        field: String,
        expected: String,
        actual: String,
    },
    /// Malformed bytes during decoding.
    Decode(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::InvalidDescriptor(m) => write!(f, "invalid descriptor: {m}"),
            Error::UnknownField(m) => write!(f, "unknown field: {m}"),
            Error::TypeMismatch {
                field,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "type mismatch on field {field}: expected {expected}, got {actual}"
                )
            }
            Error::Decode(m) => write!(f, "decode error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;
