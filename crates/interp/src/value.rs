//! Runtime values: concrete machine value + sticky overflow flag + shadow
//! tag.
//!
//! Following Figure 4's semantics, every evaluation produces a pair of a
//! concrete value and a symbolic value; here the "symbolic half" is the
//! generic shadow tag `T` (nothing for plain concrete execution, a taint
//! label set for stage 1, a [`diode_symbolic::SymExpr`] for stage 2).
//!
//! In addition we thread a *sticky overflow flag* through every operation:
//! it is set when any arithmetic step that produced this value overflowed
//! its width. The flag at an allocation site's size argument is the
//! paper's "the computation of the target value overflows" — the ground
//! truth used by error detection (§4.6) to confirm a triggered overflow.

use std::fmt;

use diode_lang::Bv;

/// Identifier of a heap block; id 0 is the null pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The null pointer.
    pub const NULL: BlockId = BlockId(0);

    /// True if this is the null pointer.
    #[must_use]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

/// The concrete half of a runtime value: a machine integer or an address
/// (Figure 4's `Val = Int ∪ Addr`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Raw {
    /// A width-typed machine integer.
    Int(Bv),
    /// A heap address (opaque: the core language has no pointer
    /// arithmetic; loads/stores take base + offset).
    Ptr(BlockId),
}

/// A tagged runtime value.
#[derive(Debug, Clone)]
pub struct Value<T> {
    /// Concrete machine value.
    pub raw: Raw,
    /// Sticky overflow flag: some operation in this value's history
    /// overflowed its width.
    pub ovf: bool,
    /// Shadow tag (taint labels / symbolic expression / nothing).
    pub tag: T,
}

impl<T: Default> Value<T> {
    /// An untainted integer value with a clean overflow history.
    #[must_use]
    pub fn int(bv: Bv) -> Self {
        Value {
            raw: Raw::Int(bv),
            ovf: false,
            tag: T::default(),
        }
    }

    /// An untainted pointer value.
    #[must_use]
    pub fn ptr(block: BlockId) -> Self {
        Value {
            raw: Raw::Ptr(block),
            ovf: false,
            tag: T::default(),
        }
    }
}

impl<T> Value<T> {
    /// The integer payload, if this value is an integer.
    #[must_use]
    pub fn as_int(&self) -> Option<Bv> {
        match self.raw {
            Raw::Int(bv) => Some(bv),
            Raw::Ptr(_) => None,
        }
    }

    /// The pointer payload, if this value is a pointer.
    #[must_use]
    pub fn as_ptr(&self) -> Option<BlockId> {
        match self.raw {
            Raw::Ptr(b) => Some(b),
            Raw::Int(_) => None,
        }
    }
}

impl<T> fmt::Display for Value<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.raw {
            Raw::Int(bv) => write!(f, "{bv}"),
            Raw::Ptr(BlockId(0)) => write!(f, "null"),
            Raw::Ptr(BlockId(b)) => write!(f, "&block{b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let v: Value<()> = Value::int(Bv::u32(7));
        assert_eq!(v.as_int(), Some(Bv::u32(7)));
        assert_eq!(v.as_ptr(), None);
        let p: Value<()> = Value::ptr(BlockId(3));
        assert_eq!(p.as_ptr(), Some(BlockId(3)));
        assert_eq!(p.as_int(), None);
        assert!(BlockId::NULL.is_null());
        assert!(!BlockId(3).is_null());
    }

    #[test]
    fn a_concrete_value_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Value<()>>(), 32);
        assert_eq!(std::mem::size_of::<Option<Value<()>>>(), 32);
    }

    #[test]
    fn display() {
        let v: Value<()> = Value::int(Bv::u32(7));
        assert_eq!(v.to_string(), "7u32");
        let p: Value<()> = Value::ptr(BlockId::NULL);
        assert_eq!(p.to_string(), "null");
    }
}
