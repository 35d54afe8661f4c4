//! The JSON-like data model the shimmed `Serialize`/`Deserialize` traits
//! convert through. `serde_json` (shimmed) prints and parses this tree.

use std::fmt;

/// A JSON-compatible value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Negative integer (positives parse as [`Value::U64`]).
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Seq(Vec<Value>),
    /// Array of `f32`, packed: what a `Vec<f32>` serializes to, so that a
    /// parameter buffer crosses as one node and not as one `F64` per
    /// element. JSON text prints it as the array of numbers it is and never
    /// parses into it.
    F32s(Vec<f32>),
    /// Object; insertion-ordered so derive output matches field order.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Look up a field of an object value.
    pub fn get_field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content, if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A short human label for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::U64(_) | Value::I64(_) => "integer",
            Value::F64(_) => "number",
            Value::Str(_) => "string",
            Value::Seq(_) | Value::F32s(_) => "array",
            Value::Map(_) => "object",
        }
    }
}

impl crate::Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl crate::Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

/// Deserialization error.
#[derive(Debug, Clone)]
pub struct DeError {
    msg: String,
}

impl DeError {
    /// Error with a fixed message.
    pub fn new(msg: impl Into<String>) -> Self {
        DeError { msg: msg.into() }
    }

    /// "expected X, found Y" error.
    pub fn unexpected(expected: &str, found: &Value) -> Self {
        DeError { msg: format!("expected {expected}, found {}", found.kind()) }
    }

    /// Missing-field error (used by derived impls).
    pub fn missing(ty: &str, field: &str) -> Self {
        DeError { msg: format!("missing field `{field}` for `{ty}`") }
    }

    /// Unknown enum variant error (used by derived impls).
    pub fn unknown_variant(ty: &str, variant: &str) -> Self {
        DeError { msg: format!("unknown variant `{variant}` for `{ty}`") }
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for DeError {}
