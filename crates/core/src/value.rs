//! Typed metadata values.
//!
//! Patch metadata is a key-value dictionary (§2.2); values are one of four
//! scalar types. Values provide a total order (for sorted indexes), hashing
//! (for hash indexes), and an order-preserving byte encoding (for on-disk
//! B+Tree keys).

use std::cmp::Ordering;
use std::fmt;

use deeplens_storage::btree::keys;

/// A metadata value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Signed integer (frame numbers, counts, coordinates).
    Int(i64),
    /// Floating point (scores, depths).
    Float(f64),
    /// String (labels, recognized text).
    Str(String),
    /// Boolean flags.
    Bool(bool),
}

impl Value {
    /// As an integer, if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// As a float; integers coerce.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// As a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// As a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Order-preserving byte encoding: a type tag followed by an encoding
    /// whose byte order matches the value order within that type.
    pub fn encode_key(&self) -> Vec<u8> {
        match self {
            Value::Bool(b) => vec![0x01, *b as u8],
            Value::Int(v) => {
                let mut out = vec![0x02];
                out.extend_from_slice(&keys::encode_i64(*v));
                out
            }
            Value::Float(v) => {
                let mut out = vec![0x03];
                out.extend_from_slice(&keys::encode_f64(*v));
                out
            }
            Value::Str(s) => {
                let mut out = vec![0x04];
                out.extend_from_slice(s.as_bytes());
                out
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: type rank first (bool < int < float < str), then value.
    /// Float NaNs use IEEE total order.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Bool(_) => 0,
                Int(_) => 1,
                Float(_) => 2,
                Str(_) => 3,
            }
        }
        match (self, other) {
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Int(v) => {
                state.write_u8(2);
                v.hash(state);
            }
            Value::Float(v) => {
                state.write_u8(3);
                v.to_bits().hash(state);
            }
            Value::Str(s) => {
                state.write_u8(4);
                s.hash(state);
            }
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_and_coercion() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Int(5).as_float(), Some(5.0));
        assert_eq!(Value::Float(2.5).as_int(), None);
        assert_eq!(Value::from("car").as_str(), Some("car"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
    }

    #[test]
    fn ordering_within_types() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Float(-1.0) < Value::Float(0.5));
        assert!(Value::from("apple") < Value::from("banana"));
    }

    #[test]
    fn key_encoding_preserves_order() {
        let ints = [-100i64, -1, 0, 1, 100];
        for w in ints.windows(2) {
            assert!(Value::Int(w[0]).encode_key() < Value::Int(w[1]).encode_key());
        }
        let floats = [-5.5, 0.0, 3.25];
        for w in floats.windows(2) {
            assert!(Value::Float(w[0]).encode_key() < Value::Float(w[1]).encode_key());
        }
        assert!(Value::from("aa").encode_key() < Value::from("ab").encode_key());
    }

    #[test]
    fn hash_distinguishes_types() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::Int(1));
        set.insert(Value::Bool(true));
        set.insert(Value::from("1"));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn display_roundtrip() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::from("label").to_string(), "label");
    }
}
