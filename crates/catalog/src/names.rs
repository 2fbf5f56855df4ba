//! Newtype names for relations and attributes.
//!
//! Using newtypes instead of bare `String`s keeps relation and attribute
//! identifiers from being confused with each other or with arbitrary text
//! (C-NEWTYPE), while still being cheap to clone and usable as map keys.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

macro_rules! name_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
        #[serde(transparent)]
        pub struct $name(Arc<str>);

        impl $name {
            /// Creates a new name from anything string-like.
            pub fn new(name: impl AsRef<str>) -> Self {
                Self(Arc::from(name.as_ref()))
            }

            /// Returns the name as a string slice.
            pub fn as_str(&self) -> &str {
                &self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl From<&str> for $name {
            fn from(s: &str) -> Self {
                Self::new(s)
            }
        }

        impl From<String> for $name {
            fn from(s: String) -> Self {
                Self::new(s)
            }
        }

        impl From<&$name> for $name {
            fn from(s: &$name) -> Self {
                s.clone()
            }
        }

        impl AsRef<str> for $name {
            fn as_ref(&self) -> &str {
                &self.0
            }
        }

        impl Borrow<str> for $name {
            fn borrow(&self) -> &str {
                &self.0
            }
        }

        impl PartialEq<str> for $name {
            fn eq(&self, other: &str) -> bool {
                self.as_str() == other
            }
        }

        impl PartialEq<&str> for $name {
            fn eq(&self, other: &&str) -> bool {
                self.as_str() == *other
            }
        }
    };
}

name_type! {
    /// The name of a base relation, e.g. `Product`.
    RelName
}

name_type! {
    /// The name of an attribute within some relation, e.g. `city`.
    AttrName
}

/// A fully-qualified attribute reference, e.g. `Division.city`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AttrRef {
    /// Relation the attribute belongs to.
    pub relation: RelName,
    /// The attribute name within [`AttrRef::relation`].
    pub attr: AttrName,
}

impl AttrRef {
    /// Creates a qualified attribute reference.
    pub fn new(relation: impl Into<RelName>, attr: impl Into<AttrName>) -> Self {
        Self {
            relation: relation.into(),
            attr: attr.into(),
        }
    }

    /// Parses a `Relation.attr` string.
    ///
    /// Returns `None` when there is no dot or either side is empty.
    pub fn parse(qualified: &str) -> Option<Self> {
        let (rel, attr) = qualified.split_once('.')?;
        if rel.is_empty() || attr.is_empty() {
            return None;
        }
        Some(Self::new(rel, attr))
    }

    /// Writes the reference as `Relation.attr` — the text of its `Display`,
    /// which calls this — in three `write_str` calls, without going through
    /// the formatting machinery.
    #[inline]
    pub fn write_to(&self, w: &mut impl fmt::Write) -> fmt::Result {
        w.write_str(self.relation.as_str())?;
        w.write_str(".")?;
        w.write_str(self.attr.as_str())
    }
}

impl fmt::Display for AttrRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn rel_name_round_trips() {
        let n = RelName::new("Product");
        assert_eq!(n.as_str(), "Product");
        assert_eq!(n.to_string(), "Product");
        assert_eq!(n, "Product");
    }

    #[test]
    fn names_are_ordered_and_hashable() {
        let mut set = BTreeSet::new();
        set.insert(RelName::new("b"));
        set.insert(RelName::new("a"));
        set.insert(RelName::new("a"));
        let sorted: Vec<_> = set.iter().map(RelName::as_str).collect();
        assert_eq!(sorted, ["a", "b"]);
    }

    #[test]
    fn attr_ref_parse_accepts_qualified() {
        let r = AttrRef::parse("Division.city").unwrap();
        assert_eq!(r.relation, "Division");
        assert_eq!(r.attr, "city");
        assert_eq!(r.to_string(), "Division.city");
    }

    #[test]
    fn attr_ref_parse_rejects_malformed() {
        assert!(AttrRef::parse("nodot").is_none());
        assert!(AttrRef::parse(".attr").is_none());
        assert!(AttrRef::parse("rel.").is_none());
    }

    #[test]
    fn borrow_str_allows_map_lookup_by_str() {
        let mut set = BTreeSet::new();
        set.insert(RelName::new("Order"));
        assert!(set.contains("Order"));
        assert!(!set.contains("Customer"));
    }
}
