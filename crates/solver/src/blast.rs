//! Bit-blasting: encodes symbolic expressions and conditions into CNF.
//!
//! Every [`SymExpr`] becomes a little-endian vector of literals over the
//! CDCL core in [`crate::sat`]; every [`SymBool`] becomes a single literal.
//! Input bytes are 8 fresh variables each. Expression nodes are cached by
//! DAG identity, so shared sub-expressions are encoded once.
//!
//! Arithmetic circuits are standard: ripple-carry adders, shift-add
//! multipliers (with the full 2w-bit product available for the
//! multiplication-overflow atom), logarithmic barrel shifters, and a
//! relational encoding of division (`n = q·d + r ∧ r < d`, with the
//! SMT-LIB convention for zero divisors). The atomic overflow predicates
//! of [`diode_symbolic::OvfKind`] are encoded exactly:
//!
//! | atom | encoding |
//! |---|---|
//! | `OvfAdd` | carry out of the ripple adder |
//! | `OvfSub` | missing carry (borrow) of `a + ¬b + 1` |
//! | `OvfMul` | OR of the high `w` bits of the 2w-bit product |
//! | `OvfShl` | `lshr(shl(a,k),k) ≠ a` |
//! | `OvfNeg` | `a ≠ 0` |
//! | `OvfShrink(w')` | OR of the dropped bits |
//!
//! Gate clauses go through `Sat::add_gate_clause`, which skips the
//! general clause normaliser when a clause needs none.
//!
//! # Recorded prefixes
//!
//! The enforcement loop solves φ′∧β after every enforced branch, and
//! `encode_bool` encodes an `And`'s right operand first, so each such
//! query starts by encoding the same β. `Blaster::record` keeps the
//! state right after a query's right-hand conjunct is encoded (the
//! solver's, see [`crate::sat`], plus this encoder's node→literals map,
//! input-byte bits and the conjunct's literal) as a `Prefix`, and
//! `Blaster::replay` restores it for a later query whose right-hand
//! conjunct is the same node, which then encodes only its left-hand
//! conjunct and the final AND gate (`Blaster::assert_and`). A replayed
//! query's CNF is clause for clause the one a fresh encoding builds.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use diode_lang::{BinOp, Bv, CastKind, CmpOp, UnOp};
use diode_symbolic::{OvfKind, Sym, SymBool, SymExpr};

use crate::sat::{Lit, Sat, SatPrefix};

/// Hashes a node address with one multiply (Fibonacci hashing). The
/// keys are addresses of live nodes, not outside input, so SipHash's
/// flooding resistance buys nothing here.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        // The product's high bits mix every input bit; the table indexes
        // buckets by the low bits, which for aligned addresses are zero.
        self.0.rotate_left(26)
    }
}

/// Encoded expressions keyed by DAG node identity. Each entry holds a
/// clone of its expression so the address stays valid for the map's
/// lifetime.
type ExprCache = HashMap<usize, (SymExpr, Vec<Lit>), BuildHasherDefault<AddrHasher>>;

/// Encodes expressions/conditions into a [`Sat`] instance.
pub struct Blaster<'s> {
    sat: &'s mut Sat,
    lit_true: Lit,
    expr_cache: ExprCache,
    /// Eight literals per input byte, LSB first.
    byte_bits: BTreeMap<u32, Vec<Lit>>,
}

/// One query's right-hand conjunct, encoded: the state
/// [`Blaster::replay`] restores for a later query whose right-hand
/// conjunct is the same node.
pub(crate) struct Prefix {
    /// The conjunct. It is the lookup key, compared by variant and child
    /// identity, and its clone keeps every node address used as a key
    /// (its children's and the map's) alive, so none can be reused while
    /// the prefix lives.
    conjunct: SymBool,
    lit: Lit,
    lit_true: Lit,
    sat: SatPrefix,
    expr_cache: ExprCache,
    byte_bits: BTreeMap<u32, Vec<Lit>>,
}

impl Prefix {
    /// True when `conjunct` is the recorded conjunct's node: the same
    /// variant over the same (immutable) children.
    pub(crate) fn encodes(&self, conjunct: &SymBool) -> bool {
        match (&self.conjunct, conjunct) {
            (SymBool::Const(a), SymBool::Const(b)) => a == b,
            (SymBool::Cmp(o1, a1, b1), SymBool::Cmp(o2, a2, b2)) => {
                o1 == o2 && a1.node_id() == a2.node_id() && b1.node_id() == b2.node_id()
            }
            (SymBool::Ovf(k1, a1, b1), SymBool::Ovf(k2, a2, b2)) => {
                k1 == k2 && a1.node_id() == a2.node_id() && b1.node_id() == b2.node_id()
            }
            (SymBool::Not(a), SymBool::Not(b)) => Arc::ptr_eq(a, b),
            (SymBool::And(a1, b1), SymBool::And(a2, b2))
            | (SymBool::Or(a1, b1), SymBool::Or(a2, b2)) => {
                Arc::ptr_eq(a1, a2) && Arc::ptr_eq(b1, b2)
            }
            _ => false,
        }
    }
}

impl<'s> Blaster<'s> {
    /// Creates a blaster over the given solver.
    pub fn new(sat: &'s mut Sat) -> Self {
        let t = sat.new_var();
        let lit_true = Lit::pos(t);
        sat.add_clause(&[lit_true]);
        Blaster {
            sat,
            lit_true,
            expr_cache: HashMap::default(),
            byte_bits: BTreeMap::new(),
        }
    }

    /// The always-true literal.
    #[must_use]
    pub fn lit_true(&self) -> Lit {
        self.lit_true
    }

    /// The always-false literal.
    #[must_use]
    pub fn lit_false(&self) -> Lit {
        !self.lit_true
    }

    /// The solver variables of each input byte that has been encoded.
    #[must_use]
    pub fn byte_bits(&self) -> &BTreeMap<u32, Vec<Lit>> {
        &self.byte_bits
    }

    /// Mutable access to the underlying SAT solver (polarity seeding,
    /// solving, adding blocking clauses).
    pub fn sat_mut(&mut self) -> &mut Sat {
        self.sat
    }

    /// Shared access to the underlying SAT solver (statistics).
    #[must_use]
    pub fn sat_ref(&self) -> &Sat {
        self.sat
    }

    /// Asserts that `cond` holds.
    pub fn assert_cond(&mut self, cond: &SymBool) {
        let l = self.encode_bool(cond);
        self.sat.add_clause(&[l]);
    }

    /// Asserts that `cond` does not hold.
    pub fn assert_not(&mut self, cond: &SymBool) {
        let l = self.encode_bool(cond);
        self.sat.add_clause(&[!l]);
    }

    /// Asserts `left ∧ right` (just `right` without `left`), where
    /// `right`, a conjunct already encoded first, has literal `right`:
    /// the clauses [`Blaster::assert_cond`] adds for the conjunction,
    /// because `encode_bool` encodes an `And`'s right operand first and
    /// gates `(left, right)`.
    pub(crate) fn assert_and(&mut self, left: Option<&SymBool>, right: Lit) {
        let lit = match left {
            Some(left) => {
                let l = self.encode_bool(left);
                self.gate_and(l, right)
            }
            None => right,
        };
        self.sat.add_clause(&[lit]);
    }

    /// Records the state right after `conjunct`, the first thing encoded
    /// on a fresh solver, was encoded to `lit`; `None` when the solver's
    /// state cannot be replayed (see [`Sat::record_prefix`]).
    pub(crate) fn record(&self, conjunct: &SymBool, lit: Lit) -> Option<Prefix> {
        Some(Prefix {
            sat: self.sat.record_prefix()?,
            conjunct: conjunct.clone(),
            lit,
            lit_true: self.lit_true,
            expr_cache: self.expr_cache.clone(),
            byte_bits: self.byte_bits.clone(),
        })
    }

    /// A blaster over the freshly reset `sat`, rebuilt into `prefix`'s
    /// recorded state, and the recorded conjunct's literal.
    pub(crate) fn replay(sat: &'s mut Sat, prefix: &Prefix) -> (Self, Lit) {
        sat.replay_prefix(&prefix.sat);
        let blaster = Blaster {
            sat,
            lit_true: prefix.lit_true,
            expr_cache: prefix.expr_cache.clone(),
            byte_bits: prefix.byte_bits.clone(),
        };
        (blaster, prefix.lit)
    }

    /// Reads the model value of an input byte after a satisfiable solve.
    /// Bytes never encoded are unconstrained and absent.
    #[must_use]
    pub fn model_byte(&self, offset: u32) -> Option<u8> {
        let bits = self.byte_bits.get(&offset)?;
        let mut v = 0u8;
        for (i, &l) in bits.iter().enumerate() {
            if self.lit_value(l) {
                v |= 1 << i;
            }
        }
        Some(v)
    }

    fn lit_value(&self, l: Lit) -> bool {
        if l == self.lit_true {
            return true;
        }
        if l == !self.lit_true {
            return false;
        }
        self.sat.model_value(l.var()) != l.sign()
    }

    // ---- gates ------------------------------------------------------------

    fn gate_and(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.lit_false() || b == self.lit_false() {
            return self.lit_false();
        }
        if a == self.lit_true {
            return b;
        }
        if b == self.lit_true {
            return a;
        }
        if a == b {
            return a;
        }
        if a == !b {
            return self.lit_false();
        }
        let g = Lit::pos(self.sat.new_var());
        self.sat.add_gate_clause([!g, a]);
        self.sat.add_gate_clause([!g, b]);
        self.sat.add_gate_clause([g, !a, !b]);
        g
    }

    fn gate_or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.gate_and(!a, !b)
    }

    fn gate_xor(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.lit_false() {
            return b;
        }
        if b == self.lit_false() {
            return a;
        }
        if a == self.lit_true {
            return !b;
        }
        if b == self.lit_true {
            return !a;
        }
        if a == b {
            return self.lit_false();
        }
        if a == !b {
            return self.lit_true;
        }
        let g = Lit::pos(self.sat.new_var());
        self.sat.add_gate_clause([!g, a, b]);
        self.sat.add_gate_clause([!g, !a, !b]);
        self.sat.add_gate_clause([g, !a, b]);
        self.sat.add_gate_clause([g, a, !b]);
        g
    }

    fn gate_ite(&mut self, c: Lit, t: Lit, e: Lit) -> Lit {
        if c == self.lit_true {
            return t;
        }
        if c == self.lit_false() {
            return e;
        }
        if t == e {
            return t;
        }
        let g = Lit::pos(self.sat.new_var());
        self.sat.add_gate_clause([!c, !t, g]);
        self.sat.add_gate_clause([!c, t, !g]);
        self.sat.add_gate_clause([c, !e, g]);
        self.sat.add_gate_clause([c, e, !g]);
        // Redundant but strengthens propagation.
        self.sat.add_gate_clause([!t, !e, g]);
        self.sat.add_gate_clause([t, e, !g]);
        g
    }

    fn gate_iff(&mut self, a: Lit, b: Lit) -> Lit {
        !self.gate_xor(a, b)
    }

    fn big_or(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = self.lit_false();
        for &l in lits {
            acc = self.gate_or(acc, l);
        }
        acc
    }

    fn big_and(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = self.lit_true;
        for &l in lits {
            acc = self.gate_and(acc, l);
        }
        acc
    }

    // ---- bit vectors -------------------------------------------------------

    fn const_bits(&self, bv: Bv) -> Vec<Lit> {
        (0..bv.width())
            .map(|i| {
                if bv.value() >> i & 1 == 1 {
                    self.lit_true
                } else {
                    !self.lit_true
                }
            })
            .collect()
    }

    fn input_byte_bits(&mut self, offset: u32) -> Vec<Lit> {
        if let Some(bits) = self.byte_bits.get(&offset) {
            return bits.clone();
        }
        let bits: Vec<Lit> = (0..8).map(|_| Lit::pos(self.sat.new_var())).collect();
        self.byte_bits.insert(offset, bits.clone());
        bits
    }

    /// Ripple-carry addition with carry-in; returns (sum, carry-out).
    fn adder(&mut self, a: &[Lit], b: &[Lit], mut carry: Lit) -> (Vec<Lit>, Lit) {
        debug_assert_eq!(a.len(), b.len());
        let mut sum = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let axb = self.gate_xor(a[i], b[i]);
            sum.push(self.gate_xor(axb, carry));
            let c1 = self.gate_and(a[i], b[i]);
            let c2 = self.gate_and(carry, axb);
            carry = self.gate_or(c1, c2);
        }
        (sum, carry)
    }

    /// Subtraction `a - b`; returns (difference, borrow) where borrow is
    /// true iff `a < b` (unsigned underflow).
    fn subtractor(&mut self, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Lit) {
        let nb: Vec<Lit> = b.iter().map(|&l| !l).collect();
        let (diff, carry) = self.adder(a, &nb, self.lit_true);
        (diff, !carry)
    }

    /// Full 2w-bit product of two w-bit vectors.
    fn mul_full(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let w = a.len();
        let mut acc: Vec<Lit> = vec![self.lit_false(); 2 * w];
        for i in 0..w {
            // Partial product: (a_i ? b : 0) << i, within 2w bits.
            let mut addend: Vec<Lit> = vec![self.lit_false(); 2 * w];
            for j in 0..w {
                addend[i + j] = self.gate_and(a[i], b[j]);
            }
            let (sum, _) = self.adder(&acc, &addend, self.lit_false());
            acc = sum;
        }
        acc
    }

    /// Comparator `a < b` (unsigned).
    fn ult(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        debug_assert_eq!(a.len(), b.len());
        let mut lt = self.lit_false();
        for i in 0..a.len() {
            // From LSB to MSB: higher bits dominate.
            let bit_lt = self.gate_and(!a[i], b[i]);
            let eq = self.gate_iff(a[i], b[i]);
            let keep = self.gate_and(eq, lt);
            lt = self.gate_or(bit_lt, keep);
        }
        lt
    }

    fn equal(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        debug_assert_eq!(a.len(), b.len());
        let iffs: Vec<Lit> = (0..a.len()).map(|i| self.gate_iff(a[i], b[i])).collect();
        self.big_and(&iffs)
    }

    fn is_nonzero(&mut self, a: &[Lit]) -> Lit {
        self.big_or(a)
    }

    /// `amount >= k` for a constant k (unsigned).
    fn geq_const(&mut self, a: &[Lit], k: u128) -> Lit {
        let kb = self.const_bits(Bv::new(a.len() as u8, k));
        let lt = self.ult(a, &kb);
        !lt
    }

    /// Barrel shifter. `dir_left` selects shl; `arith` selects sign fill
    /// for right shifts. Semantics for `amount >= width`: all zeros (or
    /// all sign bits for arithmetic right shift).
    fn shifter(&mut self, a: &[Lit], amount: &[Lit], dir_left: bool, arith: bool) -> Vec<Lit> {
        let w = a.len();
        let sign = *a.last().expect("width >= 1");
        let fill = if arith { sign } else { self.lit_false() };
        let mut cur: Vec<Lit> = a.to_vec();
        // Stages for amount bits 0..s where 2^s covers w-1.
        let stages = (usize::BITS - (w - 1).leading_zeros()) as usize;
        for (k, &amount_bit) in amount.iter().enumerate().take(stages) {
            let step = 1usize << k;
            let mut next = Vec::with_capacity(w);
            for i in 0..w {
                let shifted = if dir_left {
                    if i >= step {
                        cur[i - step]
                    } else {
                        self.lit_false()
                    }
                } else if i + step < w {
                    cur[i + step]
                } else {
                    fill
                };
                next.push(self.gate_ite(amount_bit, shifted, cur[i]));
            }
            cur = next;
        }
        // Any amount >= w yields fill (checked on the full amount value).
        let huge = self.geq_const(amount, w as u128);
        cur.into_iter()
            .map(|bit| self.gate_ite(huge, fill, bit))
            .collect()
    }

    /// Relational division encoding; returns (quotient, remainder).
    fn divider(&mut self, n: &[Lit], d: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
        let w = n.len();
        let q: Vec<Lit> = (0..w).map(|_| Lit::pos(self.sat.new_var())).collect();
        let r: Vec<Lit> = (0..w).map(|_| Lit::pos(self.sat.new_var())).collect();
        let d_nonzero = self.is_nonzero(d);

        // d == 0 → q = ~0, r = n (SMT-LIB).
        for i in 0..w {
            self.sat.add_gate_clause([d_nonzero, q[i]]);
            let riff = self.gate_iff(r[i], n[i]);
            self.sat.add_gate_clause([d_nonzero, riff]);
        }

        // d != 0 → n == q*d + r (2w bits, no wrap) ∧ r < d.
        let prod = self.mul_full(&q, d);
        let mut r2: Vec<Lit> = r.clone();
        r2.resize(2 * w, self.lit_false());
        let (sum, _) = self.adder(&prod, &r2, self.lit_false());
        let mut n2: Vec<Lit> = n.to_vec();
        n2.resize(2 * w, self.lit_false());
        let eq = self.equal(&sum, &n2);
        let rlt = self.ult(&r, d);
        self.sat.add_gate_clause([!d_nonzero, eq]);
        self.sat.add_gate_clause([!d_nonzero, rlt]);
        (q, r)
    }

    // ---- expressions -------------------------------------------------------

    /// Encodes an expression to its literal vector (cached by DAG node).
    pub fn encode_expr(&mut self, e: &SymExpr) -> Vec<Lit> {
        let key = e.sym() as *const Sym as usize;
        if let Some((_, bits)) = self.expr_cache.get(&key) {
            return bits.clone();
        }
        let bits = match e.sym() {
            Sym::Const(bv) => self.const_bits(*bv),
            Sym::InputByte(off) => self.input_byte_bits(*off),
            Sym::Un(op, a) => {
                let ab = self.encode_expr(a);
                match op {
                    UnOp::Not => ab.into_iter().map(|l| !l).collect(),
                    UnOp::Neg => {
                        let nb: Vec<Lit> = ab.iter().map(|&l| !l).collect();
                        let one = self.const_bits(Bv::new(a.width(), 1));
                        self.adder(&nb, &one, self.lit_false()).0
                    }
                }
            }
            Sym::Bin(op, a, b) => {
                let ab = self.encode_expr(a);
                let bb = self.encode_expr(b);
                match op {
                    BinOp::Add => self.adder(&ab, &bb, self.lit_false()).0,
                    BinOp::Sub => self.subtractor(&ab, &bb).0,
                    BinOp::Mul => {
                        let full = self.mul_full(&ab, &bb);
                        full[..ab.len()].to_vec()
                    }
                    BinOp::UDiv => self.divider(&ab, &bb).0,
                    BinOp::URem => self.divider(&ab, &bb).1,
                    BinOp::And => (0..ab.len()).map(|i| self.gate_and(ab[i], bb[i])).collect(),
                    BinOp::Or => (0..ab.len()).map(|i| self.gate_or(ab[i], bb[i])).collect(),
                    BinOp::Xor => (0..ab.len()).map(|i| self.gate_xor(ab[i], bb[i])).collect(),
                    BinOp::Shl => self.shifter(&ab, &bb, true, false),
                    BinOp::LShr => self.shifter(&ab, &bb, false, false),
                    BinOp::AShr => self.shifter(&ab, &bb, false, true),
                }
            }
            Sym::Cast(kind, w, a) => {
                let ab = self.encode_expr(a);
                match kind {
                    CastKind::Zext => {
                        let mut bits = ab;
                        bits.resize(*w as usize, self.lit_false());
                        bits
                    }
                    CastKind::Sext => {
                        let sign = *ab.last().expect("width >= 1");
                        let mut bits = ab;
                        bits.resize(*w as usize, sign);
                        bits
                    }
                    CastKind::Trunc => ab[..*w as usize].to_vec(),
                }
            }
        };
        self.expr_cache.insert(key, (e.clone(), bits.clone()));
        bits
    }

    /// Encodes a condition to a single literal.
    ///
    /// Iterative over the connective spine (Not/And/Or): compressed branch
    /// conditions can be conjunction chains thousands of links long, so
    /// recursion depth must not scale with them. Leaf encodings
    /// (comparisons, overflow atoms) recurse over expression DAGs whose
    /// depth is bounded by the program's arithmetic, not by trip counts.
    pub fn encode_bool(&mut self, c: &SymBool) -> Lit {
        enum Task<'a> {
            Visit(&'a SymBool),
            Not,
            And,
            Or,
        }
        let mut tasks = vec![Task::Visit(c)];
        let mut lits: Vec<Lit> = Vec::new();
        while let Some(task) = tasks.pop() {
            match task {
                Task::Visit(node) => match node {
                    SymBool::Const(true) => lits.push(self.lit_true),
                    SymBool::Const(false) => lits.push(self.lit_false()),
                    SymBool::Cmp(op, a, b) => {
                        let ab = self.encode_expr(a);
                        let bb = self.encode_expr(b);
                        let l = self.encode_cmp(*op, &ab, &bb);
                        lits.push(l);
                    }
                    SymBool::Not(inner) => {
                        tasks.push(Task::Not);
                        tasks.push(Task::Visit(inner));
                    }
                    SymBool::And(x, y) => {
                        tasks.push(Task::And);
                        tasks.push(Task::Visit(x));
                        tasks.push(Task::Visit(y));
                    }
                    SymBool::Or(x, y) => {
                        tasks.push(Task::Or);
                        tasks.push(Task::Visit(x));
                        tasks.push(Task::Visit(y));
                    }
                    SymBool::Ovf(kind, a, b) => {
                        let l = self.encode_ovf(*kind, a, b);
                        lits.push(l);
                    }
                },
                Task::Not => {
                    let l = lits.pop().expect("operand");
                    lits.push(!l);
                }
                Task::And => {
                    let (a, b) = (lits.pop().expect("lhs"), lits.pop().expect("rhs"));
                    let l = self.gate_and(a, b);
                    lits.push(l);
                }
                Task::Or => {
                    let (a, b) = (lits.pop().expect("lhs"), lits.pop().expect("rhs"));
                    let l = self.gate_or(a, b);
                    lits.push(l);
                }
            }
        }
        lits.pop().expect("result")
    }

    fn encode_cmp(&mut self, op: CmpOp, a: &[Lit], b: &[Lit]) -> Lit {
        match op {
            CmpOp::Eq => self.equal(a, b),
            CmpOp::Ne => {
                let e = self.equal(a, b);
                !e
            }
            CmpOp::Ult => self.ult(a, b),
            CmpOp::Ugt => self.ult(b, a),
            CmpOp::Ule => {
                let gt = self.ult(b, a);
                !gt
            }
            CmpOp::Uge => {
                let lt = self.ult(a, b);
                !lt
            }
            CmpOp::Slt | CmpOp::Sle | CmpOp::Sgt | CmpOp::Sge => {
                // Signed comparisons: flip both sign bits and compare
                // unsigned.
                let mut af = a.to_vec();
                let mut bf = b.to_vec();
                let last = af.len() - 1;
                af[last] = !af[last];
                bf[last] = !bf[last];
                match op {
                    CmpOp::Slt => self.ult(&af, &bf),
                    CmpOp::Sgt => self.ult(&bf, &af),
                    CmpOp::Sle => {
                        let gt = self.ult(&bf, &af);
                        !gt
                    }
                    _ => {
                        let lt = self.ult(&af, &bf);
                        !lt
                    }
                }
            }
        }
    }

    fn encode_ovf(&mut self, kind: OvfKind, a: &SymExpr, b: &SymExpr) -> Lit {
        let ab = self.encode_expr(a);
        match kind {
            OvfKind::Add => {
                let bb = self.encode_expr(b);
                self.adder(&ab, &bb, self.lit_false()).1
            }
            OvfKind::Sub => {
                let bb = self.encode_expr(b);
                self.subtractor(&ab, &bb).1
            }
            OvfKind::Mul => {
                let bb = self.encode_expr(b);
                let full = self.mul_full(&ab, &bb);
                let high = full[ab.len()..].to_vec();
                self.big_or(&high)
            }
            OvfKind::Shl => {
                let bb = self.encode_expr(b);
                let shifted = self.shifter(&ab, &bb, true, false);
                let back = self.shifter(&shifted, &bb, false, false);
                let same = self.equal(&back, &ab);
                !same
            }
            OvfKind::Neg => self.is_nonzero(&ab),
            OvfKind::Trunc(w) => {
                let high = ab[w as usize..].to_vec();
                self.big_or(&high)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SatOutcome;
    use diode_symbolic::overflow_condition;

    /// Solves `cond` and returns the model as a byte lookup (0 default).
    fn solve_model(cond: &SymBool) -> Option<BTreeMap<u32, u8>> {
        let mut sat = Sat::default();
        let mut bl = Blaster::new(&mut sat);
        bl.assert_cond(cond);
        let offsets: Vec<u32> = bl.byte_bits().keys().copied().collect();
        match bl.sat_mut().solve() {
            SatOutcome::Sat => {
                let m = offsets
                    .into_iter()
                    .map(|o| (o, bl.model_byte(o).expect("encoded byte")))
                    .collect();
                Some(m)
            }
            SatOutcome::Unsat => None,
            SatOutcome::Unknown => panic!("unexpected budget exhaustion"),
        }
    }

    fn check_model_satisfies(cond: &SymBool, model: &BTreeMap<u32, u8>) {
        assert!(
            cond.eval(&|o| model.get(&o).copied().unwrap_or(0)),
            "model does not satisfy condition"
        );
    }

    fn byte32(off: u32) -> SymExpr {
        SymExpr::input_byte(off).cast(CastKind::Zext, 32)
    }

    fn c(width: u8, v: u128) -> SymExpr {
        SymExpr::constant(Bv::new(width, v))
    }

    fn field32(base: u32) -> SymExpr {
        let b0 = byte32(base).bin(BinOp::Shl, c(32, 24));
        let b1 = byte32(base + 1).bin(BinOp::Shl, c(32, 16));
        let b2 = byte32(base + 2).bin(BinOp::Shl, c(32, 8));
        b0.bin(BinOp::Or, b1)
            .bin(BinOp::Or, b2)
            .bin(BinOp::Or, byte32(base + 3))
    }

    #[test]
    fn eq_constant_pins_bytes() {
        let cond = SymBool::cmp(CmpOp::Eq, field32(0), c(32, 0xDEAD_BEEF));
        let m = solve_model(&cond).expect("sat");
        assert_eq!(m[&0], 0xDE);
        assert_eq!(m[&1], 0xAD);
        assert_eq!(m[&2], 0xBE);
        assert_eq!(m[&3], 0xEF);
    }

    #[test]
    fn arithmetic_circuit_agrees_with_eval() {
        // (in[0]*in[1] + in[2]) == 977 has solutions; the model must agree
        // with concrete evaluation.
        let e = byte32(0)
            .bin(BinOp::Mul, byte32(1))
            .bin(BinOp::Add, byte32(2));
        let cond = SymBool::cmp(CmpOp::Eq, e.clone(), c(32, 977));
        let m = solve_model(&cond).expect("sat");
        check_model_satisfies(&cond, &m);
        let get = |o: u32| m.get(&o).copied().unwrap_or(0);
        assert_eq!(e.eval(&get).value(), 977);
    }

    #[test]
    fn unsat_when_range_impossible() {
        // A single byte cannot exceed 255.
        let cond = SymBool::cmp(CmpOp::Ugt, byte32(0), c(32, 300));
        assert!(solve_model(&cond).is_none());
    }

    #[test]
    fn subtraction_and_comparison() {
        let cond = SymBool::cmp(
            CmpOp::Eq,
            byte32(0).bin(BinOp::Sub, byte32(1)),
            c(32, 0xffff_fffb), // -5: requires in[0] + 5 == in[1] (mod 2^32)
        );
        let m = solve_model(&cond).expect("sat");
        check_model_satisfies(&cond, &m);
        assert_eq!(i64::from(m[&1]) - i64::from(m[&0]), 5);
    }

    #[test]
    fn division_circuit() {
        // in[0] / in[1] == 7 ∧ in[0] % in[1] == 3 (nonzero divisor > 3).
        let q = byte32(0).bin(BinOp::UDiv, byte32(1));
        let r = byte32(0).bin(BinOp::URem, byte32(1));
        let cond = SymBool::cmp(CmpOp::Eq, q, c(32, 7)).and(&SymBool::cmp(CmpOp::Eq, r, c(32, 3)));
        let m = solve_model(&cond).expect("sat");
        check_model_satisfies(&cond, &m);
        let (n, d) = (u32::from(m[&0]), u32::from(m[&1]));
        assert_eq!(n / d, 7);
        assert_eq!(n % d, 3);
    }

    #[test]
    fn division_by_zero_is_all_ones() {
        let q = byte32(0).bin(BinOp::UDiv, c(32, 0));
        let cond = SymBool::cmp(CmpOp::Eq, q, c(32, 0xffff_ffff));
        let m = solve_model(&cond).expect("sat — any in[0] works");
        check_model_satisfies(&cond, &m);
    }

    #[test]
    fn variable_shifts() {
        // (1 << in[0]) == 4096 forces in[0] == 12.
        let e = c(32, 1).bin(BinOp::Shl, byte32(0));
        let cond = SymBool::cmp(CmpOp::Eq, e, c(32, 4096));
        let m = solve_model(&cond).expect("sat");
        assert_eq!(m[&0], 12);
        // (0x8000 >> in[0]) == 8 forces in[0] == 12.
        let e = c(32, 0x8000).bin(BinOp::LShr, byte32(0));
        let cond = SymBool::cmp(CmpOp::Eq, e, c(32, 8));
        let m = solve_model(&cond).expect("sat");
        assert_eq!(m[&0], 12);
    }

    #[test]
    fn overshift_yields_zero() {
        // in[0] >= 32 and (1 << in[0]) == 0 simultaneously: satisfiable.
        let sh = c(32, 1).bin(BinOp::Shl, byte32(0));
        let cond = SymBool::cmp(CmpOp::Eq, sh, c(32, 0)).and(&SymBool::cmp(
            CmpOp::Uge,
            byte32(0),
            c(32, 32),
        ));
        let m = solve_model(&cond).expect("sat");
        assert!(m[&0] >= 32);
    }

    #[test]
    fn ashr_fills_sign() {
        // sext32(in[0]) ashr 4 == 0xFFFFFFFF requires a negative byte
        // with high nibble all ones: in[0] in 0xF0..=0xFF.
        let e = SymExpr::input_byte(0)
            .cast(CastKind::Sext, 32)
            .bin(BinOp::AShr, c(32, 4));
        let cond = SymBool::cmp(CmpOp::Eq, e, c(32, 0xffff_ffff));
        let m = solve_model(&cond).expect("sat");
        assert!(m[&0] >= 0xf0);
    }

    #[test]
    fn signed_comparison() {
        // slt(sext32(in[0]), 0) requires in[0] >= 0x80.
        let cond = SymBool::cmp(
            CmpOp::Slt,
            SymExpr::input_byte(0).cast(CastKind::Sext, 32),
            c(32, 0),
        );
        let m = solve_model(&cond).expect("sat");
        assert!(m[&0] >= 0x80);
    }

    #[test]
    fn add_overflow_atom() {
        // x + 2 overflows at 32 bits only for x in {0xFFFFFFFE, 0xFFFFFFFF}.
        let beta = overflow_condition(&field32(0).bin(BinOp::Add, c(32, 2)));
        let m = solve_model(&beta).expect("sat");
        let x = u32::from_be_bytes([m[&0], m[&1], m[&2], m[&3]]);
        assert!(x >= 0xffff_fffe, "x = {x:#x}");
    }

    #[test]
    fn mul_overflow_atom_sat_and_model_checked() {
        let beta = overflow_condition(&field32(0).bin(BinOp::Mul, field32(4)));
        let m = solve_model(&beta).expect("sat");
        check_model_satisfies(&beta, &m);
        let get = |o: u32| m.get(&o).copied().unwrap_or(0);
        let a = field32(0).eval(&get).value();
        let b = field32(4).eval(&get).value();
        assert!(a * b > u128::from(u32::MAX));
    }

    #[test]
    fn mul_overflow_atom_unsat_when_bounded() {
        // (in[0] zext32) * (in[1] zext32) ≤ 255*255 — never overflows; but
        // overflow_condition already discharges this statically, so force
        // the atom through the encoder to check the circuit itself.
        let a = byte32(0);
        let b = byte32(1);
        let atom = SymBool::Ovf(OvfKind::Mul, a, b);
        assert!(solve_model(&atom).is_none());
    }

    #[test]
    fn shl_overflow_atom() {
        // in[0] << 25 at width 32 overflows iff in[0] >= 2^7.
        let atom = SymBool::Ovf(OvfKind::Shl, byte32(0), c(32, 25));
        let m = solve_model(&atom).expect("sat");
        assert!(m[&0] >= 128, "in[0] = {}", m[&0]);
        check_model_satisfies(&atom, &m);
    }

    #[test]
    fn trunc_overflow_atom() {
        let atom = SymBool::Ovf(OvfKind::Trunc(8), field32(0), field32(0));
        let m = solve_model(&atom).expect("sat");
        let x = u32::from_be_bytes([m[&0], m[&1], m[&2], m[&3]]);
        assert!(x > 0xff);
    }

    #[test]
    fn sub_overflow_atom() {
        let atom = SymBool::Ovf(OvfKind::Sub, byte32(0), byte32(1));
        let m = solve_model(&atom).expect("sat");
        assert!(m[&0] < m[&1]);
    }

    #[test]
    fn neg_overflow_atom() {
        let atom = SymBool::Ovf(OvfKind::Neg, byte32(0), byte32(0));
        let m = solve_model(&atom).expect("sat");
        assert_ne!(m[&0], 0);
    }

    #[test]
    fn dillo_style_target_constraint_solves() {
        // rowbytes(width, depth) * height with 4-byte width/height fields
        // and a 1-byte depth — the Figure 2 shape.
        let width = field32(0);
        let height = field32(4);
        let depth = byte32(8);
        let rowbytes = width
            .bin(BinOp::Mul, depth.bin(BinOp::Mul, c(32, 4)))
            .bin(BinOp::LShr, c(32, 3));
        let target = rowbytes.bin(BinOp::Mul, height);
        let beta = overflow_condition(&target);
        let m = solve_model(&beta).expect("sat");
        check_model_satisfies(&beta, &m);
        // And the concrete evaluation indeed overflows.
        let get = |o: u32| m.get(&o).copied().unwrap_or(0);
        assert!(target.eval_overflow(&get).1);
    }

    #[test]
    fn conjunction_with_branch_constraint() {
        // β ∧ (width < 1_000_000): the enforcement loop's φ' ∧ β query.
        let width = field32(0);
        let height = field32(4);
        let target = width.bin(BinOp::Mul, height);
        let beta = overflow_condition(&target);
        let sanity = SymBool::cmp(CmpOp::Ult, width.clone(), c(32, 1_000_000));
        let both = sanity.and(&beta);
        let m = solve_model(&both).expect("sat");
        check_model_satisfies(&both, &m);
        let get = |o: u32| m.get(&o).copied().unwrap_or(0);
        assert!(width.eval(&get).value() < 1_000_000);
        assert!(target.eval_overflow(&get).1);
    }

    #[test]
    fn unsat_conjunction_of_tight_sanity_checks() {
        // width < 1000 ∧ height < 1000 ∧ overflow(width*height): 1000*1000
        // < 2^32, so no input passes both checks and overflows.
        let width = field32(0);
        let height = field32(4);
        let beta = overflow_condition(&width.bin(BinOp::Mul, height.clone()));
        let s1 = SymBool::cmp(CmpOp::Ult, width, c(32, 1000));
        let s2 = SymBool::cmp(CmpOp::Ult, height, c(32, 1000));
        assert!(solve_model(&s1.and(&s2).and(&beta)).is_none());
    }
}
