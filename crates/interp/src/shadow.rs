//! Shadow execution policies.
//!
//! The interpreter is parameterised by a [`Shadow`] policy that decides
//! what extra information is tracked alongside concrete values. The three
//! policies mirror DIODE's staged instrumentation (§1.3, §4.1–4.2):
//!
//! | Policy | Paper stage | Value tag | Condition tag |
//! |---|---|---|---|
//! | [`Concrete`] | plain re-execution (error detection, §4.6) | `()` | `()` |
//! | [`Taint`] | stage 1: fine-grained taint tracing | sorted input-byte label set | label set |
//! | [`Symbolic`] | stage 2: symbolic recording of relevant bytes | `Option<SymExpr>` | `Option<SymBool>` |
//!
//! Staging is what makes recording scale: the symbolic policy only builds
//! expressions for values influenced by the configured relevant bytes; all
//! other values stay purely concrete (`None`), exactly as the paper's
//! "Relevant Input Bytes" optimisation prescribes.

use std::collections::HashSet;
use std::sync::Arc;

use diode_lang::{BinOp, Bv, CastKind, CmpOp, UnOp};
use diode_symbolic::{SymBool, SymExpr};

/// A policy describing what shadow state accompanies each value.
///
/// This trait is sealed: it is implemented by [`Concrete`], [`Taint`]
/// and [`Symbolic`], and the interpreter drives it; downstream crates
/// just pick a policy.
pub trait Shadow: sealed::InputTags {
    /// Tag carried by every value and memory cell.
    type Tag: Clone + Default;
    /// Tag carried by every recorded branch observation.
    type CondTag: Clone + sealed::SameTag;

    /// Tag for one byte of program input (the taint source).
    fn input_byte(&mut self, offset: u32) -> Self::Tag;

    /// Tag for the result of a unary operation.
    fn un(&mut self, op: UnOp, operand: (&Self::Tag, Bv)) -> Self::Tag;

    /// Tag for the result of a binary operation.
    fn bin(&mut self, op: BinOp, lhs: (&Self::Tag, Bv), rhs: (&Self::Tag, Bv)) -> Self::Tag;

    /// Tag for the result of a width cast.
    fn cast(&mut self, kind: CastKind, width: u8, operand: (&Self::Tag, Bv)) -> Self::Tag;

    /// Condition tag for a comparison atom, given the concrete outcome.
    /// The returned tag must already be oriented: it describes the
    /// constraint "this atom evaluates to `outcome`".
    fn cmp(
        &mut self,
        op: CmpOp,
        lhs: (&Self::Tag, Bv),
        rhs: (&Self::Tag, Bv),
        outcome: bool,
    ) -> Self::CondTag;

    /// The trivial (untainted / always-true) condition tag.
    fn cond_true(&mut self) -> Self::CondTag;

    /// Conjunction of two condition tags (used to accumulate the
    /// evaluation trace of short-circuit `&&`/`||`).
    fn cond_and(&mut self, a: Self::CondTag, b: Self::CondTag) -> Self::CondTag;
}

pub(crate) mod sealed {
    /// Which input bytes a policy tags: what the interpreter needs to
    /// know, beyond the trait's operations, to lift a concrete snapshot
    /// into the policy (`Machine::lift`).
    pub trait InputTags {
        /// True when [`input_byte`](super::Shadow::input_byte) gives
        /// `offset` a non-default tag.
        fn tags_input(&self, offset: u32) -> bool;
    }

    /// Which condition tags are equal without comparing their contents:
    /// the observations a snapshot's run-length branch log may merge.
    pub trait SameTag {
        /// True only when `self` and `other` are the same tag, so that
        /// cloning either yields the other.
        fn same_tag(&self, other: &Self) -> bool;
    }

    impl SameTag for () {
        fn same_tag(&self, _other: &()) -> bool {
            true
        }
    }

    impl SameTag for super::LabelSet {
        fn same_tag(&self, other: &Self) -> bool {
            match (&self.0, &other.0) {
                (None, None) => true,
                (Some(a), Some(b)) => std::sync::Arc::ptr_eq(a, b),
                _ => false,
            }
        }
    }

    impl SameTag for Option<diode_symbolic::SymBool> {
        fn same_tag(&self, other: &Self) -> bool {
            self.is_none() && other.is_none()
        }
    }
}

// ---------------------------------------------------------------------------
// Concrete
// ---------------------------------------------------------------------------

/// No shadow state: plain concrete execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct Concrete;

impl sealed::InputTags for Concrete {
    fn tags_input(&self, _offset: u32) -> bool {
        false
    }
}

impl Shadow for Concrete {
    type Tag = ();
    type CondTag = ();

    fn input_byte(&mut self, _offset: u32) {}
    fn un(&mut self, _op: UnOp, _operand: (&(), Bv)) {}
    fn bin(&mut self, _op: BinOp, _lhs: (&(), Bv), _rhs: (&(), Bv)) {}
    fn cast(&mut self, _kind: CastKind, _width: u8, _operand: (&(), Bv)) {}
    fn cmp(&mut self, _op: CmpOp, _lhs: (&(), Bv), _rhs: (&(), Bv), _outcome: bool) {}
    fn cond_true(&mut self) {}
    fn cond_and(&mut self, _a: (), _b: ()) {}
}

// ---------------------------------------------------------------------------
// Taint
// ---------------------------------------------------------------------------

/// A sorted, deduplicated, structurally shared set of input-byte labels.
/// The empty set (the `Default`) means *untainted*.
#[derive(Debug, Clone, Default)]
pub struct LabelSet(Option<Arc<[u32]>>);

impl LabelSet {
    /// The untainted (empty) label set.
    #[must_use]
    pub fn empty() -> Self {
        LabelSet(None)
    }

    /// A singleton label set.
    #[must_use]
    pub fn singleton(label: u32) -> Self {
        LabelSet(Some(Arc::from(vec![label])))
    }

    /// True if no labels are present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.as_ref().is_none_or(|s| s.is_empty())
    }

    /// The labels as a sorted slice.
    #[must_use]
    pub fn labels(&self) -> &[u32] {
        self.0.as_deref().unwrap_or(&[])
    }

    /// Set union (shares the non-empty side when possible).
    #[must_use]
    pub fn union(&self, other: &LabelSet) -> LabelSet {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        let (a, b) = (self.labels(), other.labels());
        // Fast path: identical or contained ranges are common in loops.
        if a == b {
            return self.clone();
        }
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        LabelSet(Some(Arc::from(out)))
    }
}

/// Stage-1 policy: fine-grained dynamic taint analysis (§4.1). Each input
/// byte gets a unique label; arithmetic, data-movement and logic operations
/// propagate label-set unions.
#[derive(Debug, Clone, Copy, Default)]
pub struct Taint;

impl sealed::InputTags for Taint {
    fn tags_input(&self, _offset: u32) -> bool {
        true
    }
}

impl Shadow for Taint {
    type Tag = LabelSet;
    type CondTag = LabelSet;

    fn input_byte(&mut self, offset: u32) -> LabelSet {
        LabelSet::singleton(offset)
    }

    fn un(&mut self, _op: UnOp, operand: (&LabelSet, Bv)) -> LabelSet {
        operand.0.clone()
    }

    fn bin(&mut self, _op: BinOp, lhs: (&LabelSet, Bv), rhs: (&LabelSet, Bv)) -> LabelSet {
        lhs.0.union(rhs.0)
    }

    fn cast(&mut self, _kind: CastKind, _width: u8, operand: (&LabelSet, Bv)) -> LabelSet {
        operand.0.clone()
    }

    fn cmp(
        &mut self,
        _op: CmpOp,
        lhs: (&LabelSet, Bv),
        rhs: (&LabelSet, Bv),
        _outcome: bool,
    ) -> LabelSet {
        lhs.0.union(rhs.0)
    }

    fn cond_true(&mut self) -> LabelSet {
        LabelSet::empty()
    }

    fn cond_and(&mut self, a: LabelSet, b: LabelSet) -> LabelSet {
        a.union(&b)
    }
}

// ---------------------------------------------------------------------------
// Symbolic
// ---------------------------------------------------------------------------

/// Stage-2 policy: records symbolic expressions for values influenced by
/// the configured *relevant* input bytes (§4.2); everything else stays
/// concrete (`None`). With `relevant = None`, every input byte is symbolic.
#[derive(Debug, Clone, Default)]
pub struct Symbolic {
    relevant: Option<HashSet<u32>>,
}

impl Symbolic {
    /// Tracks all input bytes symbolically.
    #[must_use]
    pub fn all_bytes() -> Self {
        Symbolic { relevant: None }
    }

    /// Tracks only the given byte offsets symbolically — the staging
    /// optimisation that makes recording scale (§1.3).
    #[must_use]
    pub fn relevant_bytes<I: IntoIterator<Item = u32>>(bytes: I) -> Self {
        Symbolic {
            relevant: Some(bytes.into_iter().collect()),
        }
    }
}

/// Materialises a possibly-absent symbolic operand, embedding the concrete
/// value as a constant (the mixed concrete/symbolic rules of Figure 4).
fn materialize(tag: &Option<SymExpr>, concrete: Bv) -> SymExpr {
    match tag {
        Some(e) => e.clone(),
        None => SymExpr::constant(concrete),
    }
}

impl sealed::InputTags for Symbolic {
    fn tags_input(&self, offset: u32) -> bool {
        self.relevant
            .as_ref()
            .is_none_or(|set| set.contains(&offset))
    }
}

impl Shadow for Symbolic {
    type Tag = Option<SymExpr>;
    type CondTag = Option<SymBool>;

    fn input_byte(&mut self, offset: u32) -> Option<SymExpr> {
        match &self.relevant {
            Some(set) if !set.contains(&offset) => None,
            _ => Some(SymExpr::input_byte(offset)),
        }
    }

    fn un(&mut self, op: UnOp, operand: (&Option<SymExpr>, Bv)) -> Option<SymExpr> {
        operand.0.as_ref().map(|e| e.un(op))
    }

    fn bin(
        &mut self,
        op: BinOp,
        lhs: (&Option<SymExpr>, Bv),
        rhs: (&Option<SymExpr>, Bv),
    ) -> Option<SymExpr> {
        if lhs.0.is_none() && rhs.0.is_none() {
            return None;
        }
        Some(materialize(lhs.0, lhs.1).bin(op, materialize(rhs.0, rhs.1)))
    }

    fn cast(
        &mut self,
        kind: CastKind,
        width: u8,
        operand: (&Option<SymExpr>, Bv),
    ) -> Option<SymExpr> {
        operand.0.as_ref().map(|e| e.cast(kind, width))
    }

    fn cmp(
        &mut self,
        op: CmpOp,
        lhs: (&Option<SymExpr>, Bv),
        rhs: (&Option<SymExpr>, Bv),
        outcome: bool,
    ) -> Option<SymBool> {
        if lhs.0.is_none() && rhs.0.is_none() {
            return None;
        }
        let cond = SymBool::cmp(op, materialize(lhs.0, lhs.1), materialize(rhs.0, rhs.1));
        Some(if outcome { cond } else { cond.negate() })
    }

    fn cond_true(&mut self) -> Option<SymBool> {
        None
    }

    fn cond_and(&mut self, a: Option<SymBool>, b: Option<SymBool>) -> Option<SymBool> {
        match (a, b) {
            (None, x) | (x, None) => x,
            (Some(a), Some(b)) => Some(a.and(&b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_set_union() {
        let a = LabelSet::singleton(3);
        let b = LabelSet::singleton(1);
        let u = a.union(&b);
        assert_eq!(u.labels(), &[1, 3]);
        assert_eq!(u.union(&a).labels(), &[1, 3]);
        assert!(LabelSet::empty().is_empty());
        assert_eq!(LabelSet::empty().union(&u).labels(), &[1, 3]);
    }

    #[test]
    fn taint_propagates_unions() {
        let mut t = Taint;
        let a = t.input_byte(0);
        let b = t.input_byte(5);
        let r = t.bin(BinOp::Add, (&a, Bv::u32(1)), (&b, Bv::u32(2)));
        assert_eq!(r.labels(), &[0, 5]);
        let c = t.cast(CastKind::Zext, 32, (&r, Bv::u32(3)));
        assert_eq!(c.labels(), &[0, 5]);
    }

    #[test]
    fn symbolic_mixes_concrete_operands_as_constants() {
        let mut s = Symbolic::all_bytes();
        let sym = s.input_byte(2);
        let tagless: Option<SymExpr> = None;
        let r = s
            .bin(BinOp::Add, (&sym, Bv::byte(9)), (&tagless, Bv::byte(1)))
            .expect("tainted result");
        assert_eq!(r.eval(&|_| 9).value(), 10);
        // Untainted op stays untainted.
        assert!(s
            .bin(BinOp::Add, (&tagless, Bv::byte(1)), (&tagless, Bv::byte(2)))
            .is_none());
    }

    #[test]
    fn symbolic_restricts_to_relevant_bytes() {
        let mut s = Symbolic::relevant_bytes([4, 5]);
        assert!(s.input_byte(4).is_some());
        assert!(s.input_byte(9).is_none());
    }

    #[test]
    fn tags_input_agrees_with_input_byte() {
        use sealed::InputTags;
        for offset in [0, 4, 9] {
            let mut sym = Symbolic::relevant_bytes([4, 5]);
            assert_eq!(sym.tags_input(offset), sym.input_byte(offset).is_some());
            let mut all = Symbolic::all_bytes();
            assert_eq!(all.tags_input(offset), all.input_byte(offset).is_some());
            assert_eq!(
                Taint.tags_input(offset),
                !Taint.input_byte(offset).is_empty()
            );
            assert!(!Concrete.tags_input(offset));
        }
    }

    #[test]
    fn cmp_orientation_matches_outcome() {
        let mut s = Symbolic::all_bytes();
        let x = s.input_byte(0);
        let c: Option<SymExpr> = None;
        let taken = s
            .cmp(CmpOp::Ult, (&x, Bv::byte(3)), (&c, Bv::byte(10)), true)
            .unwrap();
        assert!(taken.eval(&|_| 3));
        assert!(!taken.eval(&|_| 10));
        let not_taken = s
            .cmp(CmpOp::Ult, (&x, Bv::byte(30)), (&c, Bv::byte(10)), false)
            .unwrap();
        assert!(not_taken.eval(&|_| 30));
        assert!(!not_taken.eval(&|_| 3));
    }
}
