//! Fixed-width bitvector values.
//!
//! Every integer value manipulated by the core language (and by the
//! symbolic layer and solver above it) is a [`Bv`]: a bitvector with an
//! explicit width between 1 and 64 bits, wrapping at its width exactly like
//! machine integers. This mirrors the paper's requirement that "the target
//! constraint faithfully represents integer arithmetic as implemented in
//! the hardware" (§2).
//!
//! Each arithmetic operation also reports whether the *ideal* (arbitrary
//! precision) result fits in the operand width. DIODE's `overflow(B)`
//! transformation (§4.3) is defined in terms of exactly this per-operation
//! overflow predicate, including for narrowing conversions (`Shrink` in the
//! paper's expression language).

use std::fmt;

/// Maximum supported bitvector width.
pub const MAX_WIDTH: u8 = 64;

/// A fixed-width bitvector value.
///
/// The value is stored in a `u64` (16 bytes per `Bv` with the width),
/// always masked to the width: `bits < 2^width`. Operations whose
/// overflow flag needs the ideal result — `add`, `mul` and `shl` — widen
/// to `u128` for the check, so no bits are lost even at width 64. The
/// public API speaks `u128` ([`new`](Bv::new), [`value`](Bv::value),
/// [`mask`](Bv::mask)) so callers never see the storage width.
///
/// # Examples
///
/// ```
/// use diode_lang::Bv;
///
/// let a = Bv::new(8, 200);
/// let b = Bv::new(8, 100);
/// let (sum, overflowed) = a.add(b);
/// assert_eq!(sum.value(), 44); // 300 mod 256
/// assert!(overflowed);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bv {
    width: u8,
    bits: u64,
}

// `add`/`sub`/`mul`/... intentionally shadow the std operator names: they
// return `(result, overflow)` pairs, which `impl Add for Bv` cannot express.
#[allow(clippy::should_implement_trait)]
impl Bv {
    /// Creates a bitvector of `width` bits holding `value` (masked to width).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than [`MAX_WIDTH`].
    #[must_use]
    pub fn new(width: u8, value: u128) -> Self {
        assert!(
            (1..=MAX_WIDTH).contains(&width),
            "bitvector width must be in 1..=64, got {width}"
        );
        Bv::wrap(width, value as u64)
    }

    /// `bits` masked to `width`, for a width already known to be valid
    /// (taken from an existing `Bv` or checked by the caller).
    fn wrap(width: u8, bits: u64) -> Self {
        Bv {
            width,
            bits: bits & Self::mask64(width),
        }
    }

    /// The all-zero bitvector of the given width.
    #[must_use]
    pub fn zero(width: u8) -> Self {
        Bv::new(width, 0)
    }

    /// The all-one bitvector of the given width (the maximum unsigned value).
    #[must_use]
    pub fn ones(width: u8) -> Self {
        Bv::new(width, u128::MAX)
    }

    /// One at the given width.
    #[must_use]
    pub fn one(width: u8) -> Self {
        Bv::new(width, 1)
    }

    /// A convenience constructor for 8-bit bytes.
    #[must_use]
    pub fn byte(value: u8) -> Self {
        Bv {
            width: 8,
            bits: u64::from(value),
        }
    }

    /// A convenience constructor for 32-bit words (the x86-32 `size_t` of
    /// the paper's allocation sites).
    #[must_use]
    pub fn u32(value: u32) -> Self {
        Bv {
            width: 32,
            bits: u64::from(value),
        }
    }

    /// The mask with the low `width` bits set.
    #[must_use]
    pub fn mask(width: u8) -> u128 {
        if width as u32 >= 128 {
            u128::MAX
        } else {
            (1u128 << width) - 1
        }
    }

    /// [`mask`](Bv::mask) for the storage word (`width` ≤ 64).
    fn mask64(width: u8) -> u64 {
        u64::MAX >> (64 - u32::from(width))
    }

    /// The width in bits.
    #[must_use]
    pub fn width(&self) -> u8 {
        self.width
    }

    /// The unsigned value.
    #[must_use]
    pub fn value(&self) -> u128 {
        u128::from(self.bits)
    }

    /// The value reinterpreted as a two's-complement signed integer.
    #[must_use]
    pub fn as_signed(&self) -> i128 {
        i128::from(self.signed64())
    }

    /// The two's-complement value, sign-extended from the width.
    fn signed64(self) -> i64 {
        let shift = 64 - u32::from(self.width);
        ((self.bits << shift) as i64) >> shift
    }

    /// True if the value is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.bits == 0
    }

    /// Wrapping addition; the flag reports unsigned overflow.
    #[must_use]
    pub fn add(self, rhs: Bv) -> (Bv, bool) {
        self.check_width(rhs);
        let wide = u128::from(self.bits) + u128::from(rhs.bits);
        (
            Bv::wrap(self.width, wide as u64),
            wide > Self::mask(self.width),
        )
    }

    /// Wrapping subtraction; the flag reports unsigned underflow.
    #[must_use]
    pub fn sub(self, rhs: Bv) -> (Bv, bool) {
        self.check_width(rhs);
        (
            Bv::wrap(self.width, self.bits.wrapping_sub(rhs.bits)),
            self.bits < rhs.bits,
        )
    }

    /// Wrapping multiplication; the flag reports unsigned overflow.
    ///
    /// Safe at width 64 because operands are `< 2^64`, so the ideal product
    /// fits in the `u128` it is computed in.
    #[must_use]
    pub fn mul(self, rhs: Bv) -> (Bv, bool) {
        self.check_width(rhs);
        let wide = u128::from(self.bits) * u128::from(rhs.bits);
        (
            Bv::wrap(self.width, wide as u64),
            wide > Self::mask(self.width),
        )
    }

    /// Unsigned division. Division by zero yields the all-ones vector
    /// (SMT-LIB `bvudiv` semantics); it never overflows.
    #[must_use]
    pub fn udiv(self, rhs: Bv) -> Bv {
        self.check_width(rhs);
        if rhs.is_zero() {
            Bv::ones(self.width)
        } else {
            Bv::wrap(self.width, self.bits / rhs.bits)
        }
    }

    /// Unsigned remainder. Remainder by zero yields the dividend
    /// (SMT-LIB `bvurem` semantics).
    #[must_use]
    pub fn urem(self, rhs: Bv) -> Bv {
        self.check_width(rhs);
        if rhs.is_zero() {
            self
        } else {
            Bv::wrap(self.width, self.bits % rhs.bits)
        }
    }

    /// Bitwise and.
    #[must_use]
    pub fn and(self, rhs: Bv) -> Bv {
        self.check_width(rhs);
        Bv::wrap(self.width, self.bits & rhs.bits)
    }

    /// Bitwise or.
    #[must_use]
    pub fn or(self, rhs: Bv) -> Bv {
        self.check_width(rhs);
        Bv::wrap(self.width, self.bits | rhs.bits)
    }

    /// Bitwise exclusive or.
    #[must_use]
    pub fn xor(self, rhs: Bv) -> Bv {
        self.check_width(rhs);
        Bv::wrap(self.width, self.bits ^ rhs.bits)
    }

    /// Bitwise complement.
    #[must_use]
    pub fn not(self) -> Bv {
        Bv::wrap(self.width, !self.bits)
    }

    /// Two's-complement negation; the flag reports that the negation of a
    /// nonzero value wrapped (unsigned semantics, matching the paper's
    /// treatment of every arithmetic step as an unsigned machine op).
    #[must_use]
    pub fn neg(self) -> (Bv, bool) {
        (
            Bv::wrap(self.width, self.bits.wrapping_neg()),
            !self.is_zero(),
        )
    }

    /// Left shift; the flag reports that nonzero bits were shifted out
    /// (i.e. `(a << k) >> k != a`), or that the shift amount is at least
    /// the width while the operand is nonzero.
    #[must_use]
    pub fn shl(self, rhs: Bv) -> (Bv, bool) {
        self.check_width(rhs);
        let k = rhs.bits;
        if k >= u64::from(self.width) {
            (Bv::zero(self.width), !self.is_zero())
        } else {
            let wide = u128::from(self.bits) << k;
            (
                Bv::wrap(self.width, wide as u64),
                wide > Self::mask(self.width),
            )
        }
    }

    /// Logical (zero-filling) right shift. Never overflows.
    #[must_use]
    pub fn lshr(self, rhs: Bv) -> Bv {
        self.check_width(rhs);
        let k = rhs.bits;
        if k >= u64::from(self.width) {
            Bv::zero(self.width)
        } else {
            Bv::wrap(self.width, self.bits >> k)
        }
    }

    /// Arithmetic (sign-filling) right shift. Never overflows.
    #[must_use]
    pub fn ashr(self, rhs: Bv) -> Bv {
        self.check_width(rhs);
        // Past the width every bit is the sign: clamp the shift to 63 on
        // the sign-extended word.
        let k = rhs.bits.min(u64::from(self.width) - 1);
        Bv::wrap(self.width, (self.signed64() >> k) as u64)
    }

    /// Zero extension to a strictly wider width. Never overflows.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not greater than the current width or exceeds
    /// [`MAX_WIDTH`].
    #[must_use]
    pub fn zext(self, width: u8) -> Bv {
        assert!(width > self.width && width <= MAX_WIDTH, "zext must widen");
        Bv {
            width,
            bits: self.bits,
        }
    }

    /// Sign extension to a strictly wider width. Never overflows.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not greater than the current width or exceeds
    /// [`MAX_WIDTH`].
    #[must_use]
    pub fn sext(self, width: u8) -> Bv {
        assert!(width > self.width && width <= MAX_WIDTH, "sext must widen");
        Bv::wrap(width, self.signed64() as u64)
    }

    /// Truncation (the paper's `Shrink`) to a strictly narrower width; the
    /// flag reports a non-value-preserving conversion (dropped bits were
    /// nonzero), which `overflow(B)` counts as an overflow of the
    /// subexpression.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not smaller than the current width or is zero.
    #[must_use]
    pub fn trunc(self, width: u8) -> (Bv, bool) {
        assert!(width < self.width && width >= 1, "trunc must narrow");
        let kept = Bv::wrap(width, self.bits);
        (kept, self.bits != kept.bits)
    }

    /// Unsigned less-than.
    #[must_use]
    pub fn ult(self, rhs: Bv) -> bool {
        self.check_width(rhs);
        self.bits < rhs.bits
    }

    /// Unsigned less-or-equal.
    #[must_use]
    pub fn ule(self, rhs: Bv) -> bool {
        self.check_width(rhs);
        self.bits <= rhs.bits
    }

    /// Signed less-than.
    #[must_use]
    pub fn slt(self, rhs: Bv) -> bool {
        self.check_width(rhs);
        self.signed64() < rhs.signed64()
    }

    /// Signed less-or-equal.
    #[must_use]
    pub fn sle(self, rhs: Bv) -> bool {
        self.check_width(rhs);
        self.signed64() <= rhs.signed64()
    }

    fn check_width(self, rhs: Bv) {
        assert_eq!(
            self.width, rhs.width,
            "bitvector width mismatch: {} vs {}",
            self.width, rhs.width
        );
    }
}

impl fmt::Debug for Bv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}u{}", self.bits, self.width)
    }
}

impl fmt::Display for Bv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}u{}", self.bits, self.width)
    }
}

impl fmt::LowerHex for Bv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}u{}", self.bits, self.width)
    }
}

impl fmt::Binary for Bv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#b}u{}", self.bits, self.width)
    }
}

impl From<u8> for Bv {
    fn from(value: u8) -> Self {
        Bv::byte(value)
    }
}

impl From<u32> for Bv {
    fn from(value: u32) -> Self {
        Bv::u32(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_masks_to_width() {
        assert_eq!(Bv::new(8, 0x1ff).value(), 0xff);
        assert_eq!(Bv::new(1, 3).value(), 1);
        assert_eq!(Bv::new(64, u128::MAX).value(), u128::from(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=64")]
    fn zero_width_rejected() {
        let _ = Bv::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=64")]
    fn oversize_width_rejected() {
        let _ = Bv::new(65, 1);
    }

    #[test]
    fn add_detects_overflow() {
        let (v, o) = Bv::new(32, 0xffff_ffff).add(Bv::new(32, 1));
        assert_eq!(v.value(), 0);
        assert!(o);
        let (v, o) = Bv::new(32, 10).add(Bv::new(32, 20));
        assert_eq!(v.value(), 30);
        assert!(!o);
    }

    #[test]
    fn add_overflow_at_width_64() {
        let (v, o) = Bv::new(64, u64::MAX as u128).add(Bv::new(64, 5));
        assert_eq!(v.value(), 4);
        assert!(o);
    }

    #[test]
    fn sub_detects_underflow() {
        let (v, o) = Bv::new(8, 3).sub(Bv::new(8, 5));
        assert_eq!(v.value(), 254);
        assert!(o);
        let (v, o) = Bv::new(8, 5).sub(Bv::new(8, 5));
        assert_eq!(v.value(), 0);
        assert!(!o);
    }

    #[test]
    fn mul_detects_overflow() {
        let (v, o) = Bv::new(16, 300).mul(Bv::new(16, 300));
        assert_eq!(v.value(), 90000 & 0xffff);
        assert!(o);
        let (v, o) = Bv::new(64, 1 << 32).mul(Bv::new(64, 1 << 32));
        assert_eq!(v.value(), 0);
        assert!(o);
    }

    #[test]
    fn dillo_example_target_mul_overflows() {
        // §2: width=689853, height=915210, bit_depth=4:
        // rowbytes = width*4/8 = 344926 (via PNG_ROWBYTES with pixel_depth 4... the
        // simplified target is rowbytes * height); 344926*915210 > 2^32.
        let rowbytes = Bv::u32(689_853 * 4 / 8);
        let height = Bv::u32(915_210);
        let (_, o) = rowbytes.mul(height);
        assert!(o);
    }

    #[test]
    fn division_by_zero_follows_smtlib() {
        assert_eq!(Bv::new(8, 7).udiv(Bv::new(8, 0)), Bv::ones(8));
        assert_eq!(Bv::new(8, 7).urem(Bv::new(8, 0)), Bv::new(8, 7));
    }

    #[test]
    fn division_normal_case() {
        assert_eq!(Bv::new(32, 100).udiv(Bv::new(32, 7)).value(), 14);
        assert_eq!(Bv::new(32, 100).urem(Bv::new(32, 7)).value(), 2);
    }

    #[test]
    fn bitwise_ops() {
        let a = Bv::new(8, 0b1100);
        let b = Bv::new(8, 0b1010);
        assert_eq!(a.and(b).value(), 0b1000);
        assert_eq!(a.or(b).value(), 0b1110);
        assert_eq!(a.xor(b).value(), 0b0110);
        assert_eq!(a.not().value(), 0xf3);
    }

    #[test]
    fn neg_overflow_flag() {
        let (v, o) = Bv::new(8, 1).neg();
        assert_eq!(v.value(), 255);
        assert!(o);
        let (v, o) = Bv::new(8, 0).neg();
        assert_eq!(v.value(), 0);
        assert!(!o);
    }

    #[test]
    fn shl_detects_lost_bits() {
        let (v, o) = Bv::new(8, 0x81).shl(Bv::new(8, 1));
        assert_eq!(v.value(), 0x02);
        assert!(o);
        let (v, o) = Bv::new(8, 0x01).shl(Bv::new(8, 7));
        assert_eq!(v.value(), 0x80);
        assert!(!o);
        // Shift amount >= width.
        let (v, o) = Bv::new(8, 1).shl(Bv::new(8, 8));
        assert_eq!(v.value(), 0);
        assert!(o);
        let (_, o) = Bv::new(8, 0).shl(Bv::new(8, 200));
        assert!(!o);
    }

    #[test]
    fn lshr_fills_zero() {
        assert_eq!(Bv::new(8, 0x80).lshr(Bv::new(8, 7)).value(), 1);
        assert_eq!(Bv::new(8, 0x80).lshr(Bv::new(8, 9)).value(), 0);
    }

    #[test]
    fn ashr_fills_sign() {
        assert_eq!(Bv::new(8, 0x80).ashr(Bv::new(8, 1)).value(), 0xc0);
        assert_eq!(Bv::new(8, 0x40).ashr(Bv::new(8, 1)).value(), 0x20);
        assert_eq!(Bv::new(8, 0x80).ashr(Bv::new(8, 100)).value(), 0xff);
        assert_eq!(Bv::new(8, 0x7f).ashr(Bv::new(8, 100)).value(), 0);
    }

    #[test]
    fn extensions() {
        assert_eq!(Bv::new(8, 0xff).zext(16).value(), 0x00ff);
        assert_eq!(Bv::new(8, 0xff).sext(16).value(), 0xffff);
        assert_eq!(Bv::new(8, 0x7f).sext(16).value(), 0x007f);
    }

    #[test]
    fn trunc_reports_value_loss() {
        let (v, lost) = Bv::new(32, 0x1_00).trunc(8);
        assert_eq!(v.value(), 0);
        assert!(lost);
        let (v, lost) = Bv::new(32, 0xfe).trunc(8);
        assert_eq!(v.value(), 0xfe);
        assert!(!lost);
    }

    #[test]
    fn signed_interpretation() {
        assert_eq!(Bv::new(8, 0xff).as_signed(), -1);
        assert_eq!(Bv::new(8, 0x80).as_signed(), -128);
        assert_eq!(Bv::new(8, 0x7f).as_signed(), 127);
        assert_eq!(Bv::new(32, 0xffff_ffff).as_signed(), -1);
    }

    #[test]
    fn comparisons() {
        let a = Bv::new(8, 0xff); // unsigned 255, signed -1
        let b = Bv::new(8, 1);
        assert!(b.ult(a));
        assert!(a.slt(b));
        assert!(a.sle(a));
        assert!(a.ule(a));
    }

    #[test]
    fn sixteen_bytes_per_value() {
        assert_eq!(std::mem::size_of::<Bv>(), 16);
    }

    #[test]
    fn width_64_edges() {
        let max = Bv::new(64, u128::from(u64::MAX));
        let (v, o) = max.mul(max);
        assert_eq!((v.value(), o), (1, true));
        let (v, o) = Bv::new(64, 1).shl(Bv::new(64, 63));
        assert_eq!((v.value(), o), (1 << 63, false));
        let (_, o) = Bv::new(64, 2).shl(Bv::new(64, 63));
        assert!(o);
        assert_eq!(max.as_signed(), -1);
        assert_eq!(Bv::new(64, 1 << 63).ashr(Bv::new(64, 200)), max);
        assert_eq!(
            Bv::new(32, 0x8000_0000).sext(64).value(),
            0xffff_ffff_8000_0000
        );
        assert_eq!(max.not().value(), 0);
        let (v, o) = Bv::new(64, 0).neg();
        assert_eq!((v.value(), o), (0, false));
        let (v, o) = Bv::new(1, 1).add(Bv::new(1, 1));
        assert_eq!((v.value(), o), (0, true));
    }

    #[test]
    fn display_formats() {
        let v = Bv::new(16, 0xbeef);
        assert_eq!(v.to_string(), "48879u16");
        assert_eq!(format!("{v:x}"), "0xbeefu16");
        assert_eq!(format!("{v:b}"), "0b1011111011101111u16");
    }
}
