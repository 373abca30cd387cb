//! Abstract syntax of the core imperative language (paper Figure 3).
//!
//! The language has width-typed arithmetic expressions ([`Aexp`]), boolean
//! expressions ([`Bexp`]), and statements ([`Stmt`]) covering assignment,
//! dynamic memory allocation, memory read/write, conditionals, loops and
//! sequential composition. Three pragmatic extensions (see `docs/ARCHITECTURE.md`,
//! "Substitutions") make realistic benchmark applications expressible:
//!
//! * procedures with by-value parameters and a return value,
//! * `error`/`warn`/`abort` statements modelling `png_error`-style input
//!   rejection, warnings, and `SIGABRT`,
//! * an `in[e]` expression reading one byte of the program input (the taint
//!   source of §4.1) and a `crc32_ok` condition modelling checksum
//!   verification that the Peach-style input reconstructor always repairs.
//!
//! Every statement carries a unique [`Label`], and every `if`/`while`
//! additionally identifies a conditional-branch site; the branch-condition
//! sequence φ of §3.2 records these labels.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::bv::Bv;

/// A unique statement label ℓ ∈ `Label` (§3.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(pub u32);

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// An interned variable name.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// A procedure identifier, indexing into [`Program::procs`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub u32);

impl fmt::Debug for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc#{}", self.0)
    }
}

/// Interner mapping variable names to [`Symbol`]s and back.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    names: Vec<String>,
    map: HashMap<String, Symbol>,
}

impl Interner {
    /// Creates an empty interner.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its symbol.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&sym) = self.map.get(name) {
            return sym;
        }
        let sym = Symbol(u32::try_from(self.names.len()).expect("too many symbols"));
        self.names.push(name.to_owned());
        self.map.insert(name.to_owned(), sym);
        sym
    }

    /// Looks up the name of a previously interned symbol.
    ///
    /// # Panics
    ///
    /// Panics if the symbol was not produced by this interner.
    #[must_use]
    pub fn name(&self, sym: Symbol) -> &str {
        &self.names[sym.0 as usize]
    }

    /// Looks up a symbol by name without interning.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Symbol> {
        self.map.get(name).copied()
    }

    /// Number of interned symbols.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no symbols are interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Unary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Two's-complement negation `-a`.
    Neg,
    /// Bitwise complement `~a`.
    Not,
}

/// Binary arithmetic operators. All operate on equal-width bitvectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition `a + b`.
    Add,
    /// Wrapping subtraction `a - b`.
    Sub,
    /// Wrapping multiplication `a * b`.
    Mul,
    /// Unsigned division `a / b` (SMT-LIB semantics on zero divisor).
    UDiv,
    /// Unsigned remainder `a % b` (SMT-LIB semantics on zero divisor).
    URem,
    /// Bitwise and `a & b`.
    And,
    /// Bitwise or `a | b`.
    Or,
    /// Bitwise exclusive or `a ^ b`.
    Xor,
    /// Left shift `a << b`.
    Shl,
    /// Logical right shift `a >> b`.
    LShr,
    /// Arithmetic right shift `ashr(a, b)`.
    AShr,
}

/// Width conversions. The paper's expression language calls zero extension
/// `ToSize` and truncation `Shrink`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastKind {
    /// Zero extension to a wider width.
    Zext,
    /// Sign extension to a wider width.
    Sext,
    /// Truncation to a narrower width (may be non-value-preserving).
    Trunc,
}

/// Comparison operators, the atoms of [`Bexp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `a == b`
    Eq,
    /// `a != b`
    Ne,
    /// Unsigned `a < b`
    Ult,
    /// Unsigned `a <= b`
    Ule,
    /// Unsigned `a > b`
    Ugt,
    /// Unsigned `a >= b`
    Uge,
    /// Signed `a <s b`
    Slt,
    /// Signed `a <=s b`
    Sle,
    /// Signed `a >s b`
    Sgt,
    /// Signed `a >=s b`
    Sge,
}

impl CmpOp {
    /// The comparison with operands swapped (e.g. `<` becomes `>`).
    #[must_use]
    pub fn swapped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Ult => CmpOp::Ugt,
            CmpOp::Ule => CmpOp::Uge,
            CmpOp::Ugt => CmpOp::Ult,
            CmpOp::Uge => CmpOp::Ule,
            CmpOp::Slt => CmpOp::Sgt,
            CmpOp::Sle => CmpOp::Sge,
            CmpOp::Sgt => CmpOp::Slt,
            CmpOp::Sge => CmpOp::Sle,
        }
    }

    /// The logical negation of the comparison (e.g. `<` becomes `>=`).
    #[must_use]
    pub fn negated(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Ult => CmpOp::Uge,
            CmpOp::Ule => CmpOp::Ugt,
            CmpOp::Ugt => CmpOp::Ule,
            CmpOp::Uge => CmpOp::Ult,
            CmpOp::Slt => CmpOp::Sge,
            CmpOp::Sle => CmpOp::Sgt,
            CmpOp::Sgt => CmpOp::Sle,
            CmpOp::Sge => CmpOp::Slt,
        }
    }

    /// Evaluates the comparison on concrete bitvectors.
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    #[must_use]
    pub fn eval(self, a: Bv, b: Bv) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Ult => a.ult(b),
            CmpOp::Ule => a.ule(b),
            CmpOp::Ugt => b.ult(a),
            CmpOp::Uge => b.ule(a),
            CmpOp::Slt => a.slt(b),
            CmpOp::Sle => a.sle(b),
            CmpOp::Sgt => b.slt(a),
            CmpOp::Sge => b.sle(a),
        }
    }
}

/// Arithmetic expressions `A ∈ Aexp` (Figure 3, extended with width casts
/// and input reads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Aexp {
    /// Integer literal `n`.
    Const(Bv),
    /// Variable reference `x`.
    Var(Symbol),
    /// One byte of program input: `in[e]` (8-bit result). This is the
    /// language's only taint source.
    InByte(Box<Aexp>),
    /// Total input length in bytes (32-bit, untainted).
    InLen,
    /// Unary operation.
    Un(UnOp, Box<Aexp>),
    /// Binary operation.
    Bin(BinOp, Box<Aexp>, Box<Aexp>),
    /// Width conversion to the given width.
    Cast(CastKind, u8, Box<Aexp>),
}

impl Aexp {
    /// Convenience constructor for a constant.
    #[must_use]
    pub fn constant(bv: Bv) -> Self {
        Aexp::Const(bv)
    }

    /// Convenience constructor for a binary operation.
    #[must_use]
    pub fn bin(op: BinOp, lhs: Aexp, rhs: Aexp) -> Self {
        Aexp::Bin(op, Box::new(lhs), Box::new(rhs))
    }
}

/// Boolean expressions `B ∈ Bexp` (Figure 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bexp {
    /// `true` or `false`.
    Const(bool),
    /// Comparison `A1 cmp A2`.
    Cmp(CmpOp, Box<Aexp>, Box<Aexp>),
    /// Logical negation `!B`.
    Not(Box<Bexp>),
    /// Conjunction `B1 && B2` (short-circuit).
    And(Box<Bexp>, Box<Bexp>),
    /// Disjunction `B1 || B2` (short-circuit).
    Or(Box<Bexp>, Box<Bexp>),
    /// Checksum verification intrinsic: true iff the CRC-32 of input bytes
    /// `[start, start+len)` equals the big-endian u32 stored in the input
    /// at `stored`. Concretely verified but *untainted* (see
    /// `docs/ARCHITECTURE.md`, "Substitutions": the Peach-style
    /// reconstructor always repairs checksums, so this branch never flips
    /// between seed and candidate inputs).
    Crc32Ok {
        /// Offset of the checksummed region in the input.
        start: Box<Aexp>,
        /// Length of the checksummed region.
        len: Box<Aexp>,
        /// Offset of the stored big-endian CRC-32 in the input.
        stored: Box<Aexp>,
    },
}

impl Bexp {
    /// Convenience constructor for a comparison.
    #[must_use]
    pub fn cmp(op: CmpOp, lhs: Aexp, rhs: Aexp) -> Self {
        Bexp::Cmp(op, Box::new(lhs), Box::new(rhs))
    }
}

/// Statements `C ∈ Stmt` (Figure 3, extended as described in the module
/// docs).
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `skip;`
    Skip(Label),
    /// `x = A;`
    Assign(Label, Symbol, Aexp),
    /// `x = f(A*);` or `f(A*);` — call with optional result binding.
    Call {
        /// Statement label.
        label: Label,
        /// Variable receiving the return value, if any.
        dst: Option<Symbol>,
        /// Callee.
        proc: ProcId,
        /// Actual arguments, passed by value.
        args: Vec<Aexp>,
    },
    /// `x = alloc("site", A);` — dynamic allocation at a named target site.
    /// The size argument must evaluate to a 32-bit value (the x86-32
    /// `malloc` argument width of the paper's benchmarks).
    Alloc {
        /// Statement label (this is the target-site label ℓ of §3.3).
        label: Label,
        /// Human-readable site name, e.g. `png.c@203`.
        site: Arc<str>,
        /// Variable receiving the block address (null on failure when
        /// `abort_on_fail` is false).
        dst: Symbol,
        /// Allocation size in bytes.
        size: Aexp,
        /// If true, allocation failure aborts the program (`SIGABRT`),
        /// modelling `g_malloc`/`xmalloc`-style wrappers.
        abort_on_fail: bool,
    },
    /// `free(x);`
    Free(Label, Symbol),
    /// `x = y[A];` — load one byte from the block addressed by `y`.
    Load {
        /// Statement label.
        label: Label,
        /// Destination variable (receives an 8-bit value).
        dst: Symbol,
        /// Pointer variable.
        base: Symbol,
        /// Byte offset into the block.
        offset: Aexp,
    },
    /// `x[A] = e;` — store one byte (8-bit value) into the block.
    Store {
        /// Statement label.
        label: Label,
        /// Pointer variable.
        base: Symbol,
        /// Byte offset into the block.
        offset: Aexp,
        /// 8-bit value to store.
        value: Aexp,
    },
    /// `if B { S1 } else { S2 }`
    If {
        /// Conditional-branch label (recorded in φ).
        label: Label,
        /// Branch condition.
        cond: Bexp,
        /// Taken branch.
        then_blk: Block,
        /// Fall-through branch.
        else_blk: Block,
    },
    /// `while B { S }`
    While {
        /// Conditional-branch label (recorded in φ once per iteration test).
        label: Label,
        /// Loop condition.
        cond: Bexp,
        /// Loop body.
        body: Block,
    },
    /// `error("msg");` — reject the input and stop (e.g. `png_error`).
    Error(Label, String),
    /// `warn("msg");` — record a warning and continue (e.g. `png_warning`).
    Warn(Label, String),
    /// `abort("msg");` — terminate abnormally (`SIGABRT`).
    Abort(Label, String),
    /// `return A?;`
    Return(Label, Option<Aexp>),
}

impl Stmt {
    /// The unique label of this statement.
    #[must_use]
    pub fn label(&self) -> Label {
        match self {
            Stmt::Skip(l)
            | Stmt::Assign(l, _, _)
            | Stmt::Free(l, _)
            | Stmt::Error(l, _)
            | Stmt::Warn(l, _)
            | Stmt::Abort(l, _)
            | Stmt::Return(l, _) => *l,
            Stmt::Call { label, .. }
            | Stmt::Alloc { label, .. }
            | Stmt::Load { label, .. }
            | Stmt::Store { label, .. }
            | Stmt::If { label, .. }
            | Stmt::While { label, .. } => *label,
        }
    }
}

/// A statement sequence `S = C1; …; Cn` (Figure 3).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block(pub Vec<Stmt>);

impl Block {
    /// Creates an empty block.
    #[must_use]
    pub fn new() -> Self {
        Block(Vec::new())
    }

    /// Statements in the block.
    #[must_use]
    pub fn stmts(&self) -> &[Stmt] {
        &self.0
    }
}

/// A procedure definition.
#[derive(Debug, Clone)]
pub struct Proc {
    /// Procedure name.
    pub name: String,
    /// Formal parameters, bound by value at call time.
    pub params: Vec<Symbol>,
    /// Procedure body.
    pub body: Block,
}

/// A complete program: a set of procedures with a `main` entry point.
#[derive(Debug, Clone)]
pub struct Program {
    procs: Vec<Proc>,
    interner: Interner,
    entry: ProcId,
    n_labels: u32,
}

impl Program {
    /// Assembles a program from parts. Prefer [`crate::parse::parse`] for
    /// textual sources.
    ///
    /// # Errors
    ///
    /// Returns an error if no procedure is named `main`.
    pub fn from_parts(
        procs: Vec<Proc>,
        interner: Interner,
        n_labels: u32,
    ) -> Result<Self, NoMainError> {
        let entry = procs
            .iter()
            .position(|p| p.name == "main")
            .map(|i| ProcId(i as u32))
            .ok_or(NoMainError)?;
        Ok(Program {
            procs,
            interner,
            entry,
            n_labels,
        })
    }

    /// All procedures, indexable by [`ProcId`].
    #[must_use]
    pub fn procs(&self) -> &[Proc] {
        &self.procs
    }

    /// The procedure with the given id.
    #[must_use]
    pub fn proc(&self, id: ProcId) -> &Proc {
        &self.procs[id.0 as usize]
    }

    /// Looks up a procedure by name.
    #[must_use]
    pub fn proc_by_name(&self, name: &str) -> Option<(ProcId, &Proc)> {
        self.procs
            .iter()
            .enumerate()
            .find(|(_, p)| p.name == name)
            .map(|(i, p)| (ProcId(i as u32), p))
    }

    /// The entry procedure (`main`).
    #[must_use]
    pub fn entry(&self) -> ProcId {
        self.entry
    }

    /// The symbol interner for variable names.
    #[must_use]
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Total number of labels allocated; labels are `0..n_labels`.
    #[must_use]
    pub fn n_labels(&self) -> u32 {
        self.n_labels
    }

    /// Iterates over every allocation site in the program, in label order.
    pub fn alloc_sites(&self) -> Vec<(Label, Arc<str>)> {
        let mut out = Vec::new();
        for p in &self.procs {
            collect_sites(&p.body, &mut out);
        }
        out.sort_by_key(|(l, _)| *l);
        out
    }
}

fn collect_sites(block: &Block, out: &mut Vec<(Label, Arc<str>)>) {
    for stmt in block.stmts() {
        match stmt {
            Stmt::Alloc { label, site, .. } => out.push((*label, site.clone())),
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                collect_sites(then_blk, out);
                collect_sites(else_blk, out);
            }
            Stmt::While { body, .. } => collect_sites(body, out),
            _ => {}
        }
    }
}

/// Error returned when a program lacks a `main` procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoMainError;

impl fmt::Display for NoMainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "program has no `main` procedure")
    }
}

impl std::error::Error for NoMainError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_roundtrip() {
        let mut i = Interner::new();
        let a = i.intern("width");
        let b = i.intern("height");
        let a2 = i.intern("width");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.name(a), "width");
        assert_eq!(i.name(b), "height");
        assert_eq!(i.get("width"), Some(a));
        assert_eq!(i.get("missing"), None);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn cmp_negation_is_involutive() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Ult,
            CmpOp::Ule,
            CmpOp::Ugt,
            CmpOp::Uge,
            CmpOp::Slt,
            CmpOp::Sle,
            CmpOp::Sgt,
            CmpOp::Sge,
        ] {
            assert_eq!(op.negated().negated(), op);
            assert_eq!(op.swapped().swapped(), op);
        }
    }

    #[test]
    fn cmp_eval_matches_negation() {
        let a = Bv::new(8, 5);
        let b = Bv::new(8, 9);
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Ult,
            CmpOp::Ule,
            CmpOp::Ugt,
            CmpOp::Uge,
            CmpOp::Slt,
            CmpOp::Sle,
            CmpOp::Sgt,
            CmpOp::Sge,
        ] {
            assert_eq!(op.eval(a, b), !op.negated().eval(a, b));
            assert_eq!(op.eval(a, b), op.swapped().eval(b, a));
        }
    }

    #[test]
    fn program_requires_main() {
        let err = Program::from_parts(vec![], Interner::new(), 0);
        assert!(err.is_err());
        assert_eq!(
            err.unwrap_err().to_string(),
            "program has no `main` procedure"
        );
    }

    #[test]
    fn alloc_sites_are_collected_in_label_order() {
        let mut i = Interner::new();
        let x = i.intern("x");
        let body = Block(vec![
            Stmt::Alloc {
                label: Label(3),
                site: "b@2".into(),
                dst: x,
                size: Aexp::Const(Bv::u32(4)),
                abort_on_fail: false,
            },
            Stmt::If {
                label: Label(1),
                cond: Bexp::Const(true),
                then_blk: Block(vec![Stmt::Alloc {
                    label: Label(0),
                    site: "a@1".into(),
                    dst: x,
                    size: Aexp::Const(Bv::u32(4)),
                    abort_on_fail: true,
                }]),
                else_blk: Block::new(),
            },
        ]);
        let prog = Program::from_parts(
            vec![Proc {
                name: "main".into(),
                params: vec![],
                body,
            }],
            i,
            4,
        )
        .unwrap();
        let sites = prog.alloc_sites();
        assert_eq!(sites.len(), 2);
        assert_eq!(&*sites[0].1, "a@1");
        assert_eq!(&*sites[1].1, "b@2");
    }
}
