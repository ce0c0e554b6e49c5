//! Vendored offline stand-in for the `serde` crate.
//!
//! The build environment has no network access and no vendored registry,
//! so the real `serde` cannot be fetched. This shim keeps the workspace's
//! `#[derive(Serialize, Deserialize)]` code compiling and its JSON
//! round-trips working by replacing serde's visitor architecture with a
//! concrete JSON-shaped [`Content`] tree: `Serialize` lowers a value into
//! `Content`, `Deserialize` lifts it back. The derive macros (from the
//! sibling `serde_derive` shim) generate those impls with serde's default
//! externally-tagged representation, so JSON produced by the `serde_json`
//! shim matches real-serde output for the shapes this workspace uses.

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// A JSON-shaped value tree: the data model `Serialize`/`Deserialize`
/// convert through.
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Seq(Vec<Content>),
    /// Object, insertion-ordered.
    Map(Vec<(String, Content)>),
}

/// A deserialization error: what was expected, what was found.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentError(pub String);

impl ContentError {
    /// Builds an error noting that `expected` was not found while reading
    /// a value of type `ty`.
    pub fn expected(expected: &str, ty: &str) -> Self {
        ContentError(format!("expected {expected} while deserializing {ty}"))
    }
}

impl fmt::Display for ContentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ContentError {}

static NULL_CONTENT: Content = Content::Null;

impl Content {
    /// The map entries if this is a map.
    pub fn as_map(&self) -> Option<&[(String, Content)]> {
        match self {
            Content::Map(m) => Some(m),
            _ => None,
        }
    }

    /// The sequence elements if this is a sequence.
    pub fn as_seq(&self) -> Option<&[Content]> {
        match self {
            Content::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// The string if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Content::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Looks up `key` in a field list; missing fields read as `Null`
    /// (which deserializes to `None` for `Option` fields, and errors for
    /// everything else — matching serde's missing-field behavior closely
    /// enough for round-trips of our own output).
    pub fn field<'a>(fields: &'a [(String, Content)], key: &str) -> &'a Content {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or(&NULL_CONTENT)
    }
}

/// Serialization into the [`Content`] data model.
pub trait Serialize {
    /// Lowers `self` into a content tree.
    fn to_content(&self) -> Content;
}

/// Deserialization out of the [`Content`] data model.
pub trait Deserialize: Sized {
    /// Lifts a value of `Self` out of a content tree.
    fn from_content(c: &Content) -> Result<Self, ContentError>;
}

impl Serialize for Content {
    fn to_content(&self) -> Content {
        self.clone()
    }
}

impl Deserialize for Content {
    fn from_content(c: &Content) -> Result<Self, ContentError> {
        Ok(c.clone())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl Serialize for bool {
    fn to_content(&self) -> Content {
        Content::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_content(c: &Content) -> Result<Self, ContentError> {
        match c {
            Content::Bool(b) => Ok(*b),
            _ => Err(ContentError::expected("bool", "bool")),
        }
    }
}

macro_rules! impl_unsigned {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_content(&self) -> Content {
                Content::U64(*self as u64)
            }
        }
        impl Deserialize for $ty {
            fn from_content(c: &Content) -> Result<Self, ContentError> {
                let v = match c {
                    Content::U64(v) => *v,
                    Content::I64(v) if *v >= 0 => *v as u64,
                    Content::F64(v) if v.fract() == 0.0 && *v >= 0.0 => *v as u64,
                    _ => return Err(ContentError::expected("unsigned integer", stringify!($ty))),
                };
                <$ty>::try_from(v)
                    .map_err(|_| ContentError::expected("in-range integer", stringify!($ty)))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_content(&self) -> Content {
                let v = *self as i64;
                if v >= 0 {
                    Content::U64(v as u64)
                } else {
                    Content::I64(v)
                }
            }
        }
        impl Deserialize for $ty {
            fn from_content(c: &Content) -> Result<Self, ContentError> {
                let v = match c {
                    Content::I64(v) => *v,
                    Content::U64(v) => i64::try_from(*v)
                        .map_err(|_| ContentError::expected("in-range integer", stringify!($ty)))?,
                    Content::F64(v) if v.fract() == 0.0 => *v as i64,
                    _ => return Err(ContentError::expected("integer", stringify!($ty))),
                };
                <$ty>::try_from(v)
                    .map_err(|_| ContentError::expected("in-range integer", stringify!($ty)))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_content(&self) -> Content {
                Content::F64(*self as f64)
            }
        }
        impl Deserialize for $ty {
            fn from_content(c: &Content) -> Result<Self, ContentError> {
                match c {
                    Content::F64(v) => Ok(*v as $ty),
                    Content::U64(v) => Ok(*v as $ty),
                    Content::I64(v) => Ok(*v as $ty),
                    _ => Err(ContentError::expected("number", stringify!($ty))),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for str {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl Serialize for String {
    fn to_content(&self) -> Content {
        Content::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_content(c: &Content) -> Result<Self, ContentError> {
        match c {
            Content::Str(s) => Ok(s.clone()),
            _ => Err(ContentError::expected("string", "String")),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_content(&self) -> Content {
        match self {
            Some(v) => v.to_content(),
            None => Content::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_content(c: &Content) -> Result<Self, ContentError> {
        match c {
            Content::Null => Ok(None),
            other => T::from_content(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_content(c: &Content) -> Result<Self, ContentError> {
        T::from_content(c).map(Box::new)
    }
}

/// Transparent, like serde's `rc` feature: an `Arc` serializes as its
/// value, and each deserialized `Arc` owns a fresh allocation (sharing is
/// not preserved across a round-trip).
impl<T: Serialize> Serialize for Arc<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Deserialize> Deserialize for Arc<T> {
    fn from_content(c: &Content) -> Result<Self, ContentError> {
        T::from_content(c).map(Arc::new)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_content(c: &Content) -> Result<Self, ContentError> {
        c.as_seq()
            .ok_or_else(|| ContentError::expected("array", "Vec"))?
            .iter()
            .map(T::from_content)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

macro_rules! impl_tuple {
    ($(($($idx:tt $name:ident),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_content(&self) -> Content {
                Content::Seq(vec![$(self.$idx.to_content()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_content(c: &Content) -> Result<Self, ContentError> {
                let s = c.as_seq().ok_or_else(|| ContentError::expected("array", "tuple"))?;
                Ok(($($name::from_content(
                    s.get($idx).ok_or_else(|| ContentError::expected("tuple element", "tuple"))?
                )?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

/// Encodes key/value pairs: all-string keys become an object (serde's
/// JSON shape); any other key type becomes a sequence of `[key, value]`
/// pairs, which round-trips through [`map_pairs_from_content`].
fn map_content_from_pairs(pairs: Vec<(Content, Content)>) -> Content {
    if pairs.iter().all(|(k, _)| matches!(k, Content::Str(_))) {
        Content::Map(
            pairs
                .into_iter()
                .map(|(k, v)| match k {
                    Content::Str(s) => (s, v),
                    _ => unreachable!("checked all keys are strings"),
                })
                .collect(),
        )
    } else {
        Content::Seq(
            pairs
                .into_iter()
                .map(|(k, v)| Content::Seq(vec![k, v]))
                .collect(),
        )
    }
}

/// Decodes either map encoding produced by [`map_content_from_pairs`].
fn map_pairs_from_content<K: Deserialize, V: Deserialize>(
    c: &Content,
    ty: &str,
) -> Result<Vec<(K, V)>, ContentError> {
    match c {
        Content::Map(entries) => entries
            .iter()
            .map(|(k, v)| {
                Ok((
                    K::from_content(&Content::Str(k.clone()))?,
                    V::from_content(v)?,
                ))
            })
            .collect(),
        Content::Seq(items) => items
            .iter()
            .map(|item| {
                let pair = item
                    .as_seq()
                    .filter(|s| s.len() == 2)
                    .ok_or_else(|| ContentError::expected("[key, value] pair", ty))?;
                Ok((K::from_content(&pair[0])?, V::from_content(&pair[1])?))
            })
            .collect(),
        _ => Err(ContentError::expected("object or pair list", ty)),
    }
}

impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_content(&self) -> Content {
        map_content_from_pairs(
            self.iter()
                .map(|(k, v)| (k.to_content(), v.to_content()))
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_content(c: &Content) -> Result<Self, ContentError> {
        Ok(map_pairs_from_content::<K, V>(c, "BTreeMap")?
            .into_iter()
            .collect())
    }
}

impl<K: Serialize + Eq + std::hash::Hash, V: Serialize> Serialize for HashMap<K, V> {
    fn to_content(&self) -> Content {
        // Sorted by encoded key for deterministic output regardless of
        // hash iteration order.
        let mut pairs: Vec<(Content, Content)> = self
            .iter()
            .map(|(k, v)| (k.to_content(), v.to_content()))
            .collect();
        pairs.sort_by(|a, b| format!("{:?}", a.0).cmp(&format!("{:?}", b.0)));
        map_content_from_pairs(pairs)
    }
}

impl<K: Deserialize + Eq + std::hash::Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_content(c: &Content) -> Result<Self, ContentError> {
        Ok(map_pairs_from_content::<K, V>(c, "HashMap")?
            .into_iter()
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u32::from_content(&42u32.to_content()).unwrap(), 42);
        assert_eq!(i64::from_content(&(-7i64).to_content()).unwrap(), -7);
        assert_eq!(
            String::from_content(&"hi".to_string().to_content()).unwrap(),
            "hi"
        );
        assert_eq!(Option::<u8>::from_content(&Content::Null).unwrap(), None);
        assert_eq!(
            Vec::<u64>::from_content(&vec![1u64, 2].to_content()).unwrap(),
            vec![1, 2]
        );
    }

    #[test]
    fn arc_is_transparent() {
        let shared = Arc::new(vec![1u64, 2]);
        assert_eq!(shared.to_content(), vec![1u64, 2].to_content());
        let back = Arc::<Vec<u64>>::from_content(&shared.to_content()).unwrap();
        assert_eq!(back, shared);
    }

    #[test]
    fn missing_field_reads_as_null() {
        let fields = vec![("a".to_string(), Content::U64(1))];
        assert_eq!(Content::field(&fields, "a"), &Content::U64(1));
        assert_eq!(Content::field(&fields, "b"), &Content::Null);
    }
}
