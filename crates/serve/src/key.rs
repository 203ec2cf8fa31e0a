//! Content-hash artifact keys.
//!
//! An artifact key is the FNV-1a-64 digest of a *canonical* parameter
//! string: named fields, each rendered in an exact textual form (integers
//! in decimal, identifiers verbatim), sorted by field name.
//! Canonicalization is what makes the key a cache identity rather than a
//! serialization accident: the same parameters pushed in any order produce
//! byte-identical canonical strings and therefore identical keys, while
//! perturbing any single band index or frequency count changes the digest.
//! `tests/serve.rs` holds the canonicalization and sensitivity properties.

use std::fmt;

/// A 64-bit content-hash key into the artifact store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArtifactKey(pub u64);

impl ArtifactKey {
    /// Fixed-width lowercase hex form, used in store file names.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl fmt::Display for ArtifactKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.hex())
    }
}

/// One canonical field value.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Value {
    /// Unsigned integer, rendered in decimal.
    Int(u64),
    /// Short identifier text (no `;`, `=`, or control characters).
    Text(String),
}

impl Value {
    fn render(&self) -> String {
        match self {
            Value::Int(v) => format!("i{v}"),
            Value::Text(t) => format!("s{t}"),
        }
    }
}

/// A set of named parameters being canonicalized into an [`ArtifactKey`].
///
/// Push fields in any order; [`KeySpec::canonical`] sorts by name, so two
/// specs with the same fields are byte-identical however they were built.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KeySpec {
    fields: Vec<(String, Value)>,
}

impl KeySpec {
    /// An empty spec.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, name: &str, value: Value) {
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "key field name {name:?} must be [A-Za-z0-9_]"
        );
        assert!(
            !self.fields.iter().any(|(n, _)| n == name),
            "duplicate key field {name:?}"
        );
        self.fields.push((name.to_string(), value));
    }

    /// Adds an unsigned-integer field.
    pub fn push_int(&mut self, name: &str, value: u64) -> &mut Self {
        self.push(name, Value::Int(value));
        self
    }

    /// Adds a short identifier field (`[A-Za-z0-9_.-]` only).
    pub fn push_str(&mut self, name: &str, value: &str) -> &mut Self {
        assert!(
            value
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "key field value {value:?} must be [A-Za-z0-9_.-]"
        );
        self.push(name, Value::Text(value.to_string()));
        self
    }

    /// The canonical string: `name=value` pairs sorted by name, joined
    /// with `;`. Identical parameter sets render identically regardless
    /// of push order.
    pub fn canonical(&self) -> String {
        let mut sorted: Vec<&(String, Value)> = self.fields.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        sorted
            .iter()
            .map(|(n, v)| format!("{n}={}", v.render()))
            .collect::<Vec<_>>()
            .join(";")
    }

    /// The content hash of the canonical string.
    pub fn key(&self) -> ArtifactKey {
        ArtifactKey(bgw_io::fnv1a(self.canonical().as_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_order_does_not_change_key() {
        let mut a = KeySpec::new();
        a.push_int("n_bands", 24)
            .push_int("n_quad", 16)
            .push_str("sys", "si");
        let mut b = KeySpec::new();
        b.push_str("sys", "si")
            .push_int("n_quad", 16)
            .push_int("n_bands", 24);
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.key(), b.key());
    }

    #[test]
    fn perturbations_differ_and_digests_are_pinned() {
        let mut a = KeySpec::new();
        a.push_int("m", 1).push_str("mode", "gpp");
        let mut b = KeySpec::new();
        b.push_int("m", 2).push_str("mode", "gpp");
        assert_ne!(a.key(), b.key());
        // The digest is the store's file name: a change to the canonical
        // form or the hash moves every artifact key.
        assert_eq!(a.canonical(), "m=i1;mode=sgpp");
        assert_eq!(a.key(), ArtifactKey(0x2155_47fd_3fcd_f2ba));
        let mut c = KeySpec::new();
        c.push_str("sys", "si")
            .push_int("n_quad", 16)
            .push_int("n_bands", 24);
        assert_eq!(c.canonical(), "n_bands=i24;n_quad=i16;sys=ssi");
        assert_eq!(c.key(), ArtifactKey(0x7017_a545_27c4_5d1c));
    }

    #[test]
    fn hex_form_is_fixed_width() {
        let k = ArtifactKey(0x2a);
        assert_eq!(k.hex(), "000000000000002a");
        assert_eq!(k.to_string(), k.hex());
    }
}
