//! Operation kinds of the MASS ISA: ALU ops, comparisons, atomics and
//! memory spaces.

use std::fmt;

/// Unary ALU operations.
///
/// Integer ops interpret the source as `i32`/`u32` bit patterns; float ops
/// as IEEE-754 `f32`.
///
/// # Example
/// ```
/// use simt_isa::UnOp;
/// assert_eq!(UnOp::FSqrt.to_string(), "fsqrt");
/// assert!(UnOp::FSqrt.is_sfu());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Copy the source.
    Mov,
    /// Two's complement negation.
    INeg,
    /// Integer absolute value (`i32`).
    IAbs,
    /// Bitwise complement.
    Not,
    /// Float negation.
    FNeg,
    /// Float absolute value.
    FAbs,
    /// Float square root (SFU).
    FSqrt,
    /// Float reciprocal (SFU).
    FRcp,
    /// Float base-2 exponential (SFU).
    FExp2,
    /// Float base-2 logarithm (SFU).
    FLog2,
    /// Signed `i32` to `f32` conversion.
    I2F,
    /// Unsigned `u32` to `f32` conversion.
    U2F,
    /// `f32` to signed `i32` conversion (truncating, saturating).
    F2I,
    /// `f32` to unsigned `u32` conversion (truncating, saturating).
    F2U,
    /// Count of leading zeros.
    Clz,
    /// Population count.
    Popc,
}

impl UnOp {
    /// Whether the op executes on the special-function unit (longer latency).
    pub fn is_sfu(self) -> bool {
        matches!(self, UnOp::FSqrt | UnOp::FRcp | UnOp::FExp2 | UnOp::FLog2)
    }

    /// Whether the op is a floating-point operation.
    pub fn is_float(self) -> bool {
        matches!(
            self,
            UnOp::FNeg
                | UnOp::FAbs
                | UnOp::FSqrt
                | UnOp::FRcp
                | UnOp::FExp2
                | UnOp::FLog2
                | UnOp::I2F
                | UnOp::U2F
        )
    }
}

/// Binary ALU operations.
///
/// # Example
/// ```
/// use simt_isa::BinOp;
/// assert_eq!(BinOp::IAdd.to_string(), "iadd");
/// assert!(BinOp::FDiv.is_sfu());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Integer addition (wrapping).
    IAdd,
    /// Integer subtraction (wrapping).
    ISub,
    /// Integer multiplication, low 32 bits (wrapping).
    IMul,
    /// Integer multiplication, high 32 bits of the signed 64-bit product.
    IMulHi,
    /// Signed integer division (0 on divide-by-zero, like GPU emulation).
    IDiv,
    /// Unsigned integer division (0 on divide-by-zero).
    UDiv,
    /// Signed integer remainder (0 on divide-by-zero).
    IRem,
    /// Unsigned integer remainder (0 on divide-by-zero).
    URem,
    /// Signed minimum.
    IMin,
    /// Signed maximum.
    IMax,
    /// Unsigned minimum.
    UMin,
    /// Unsigned maximum.
    UMax,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Logical shift left (shift amount masked to 5 bits).
    Shl,
    /// Logical shift right (shift amount masked to 5 bits).
    Shr,
    /// Arithmetic shift right (shift amount masked to 5 bits).
    AShr,
    /// Float addition.
    FAdd,
    /// Float subtraction.
    FSub,
    /// Float multiplication.
    FMul,
    /// Float division (SFU-class latency).
    FDiv,
    /// Float minimum (IEEE `minNum` semantics).
    FMin,
    /// Float maximum (IEEE `maxNum` semantics).
    FMax,
}

impl BinOp {
    /// Whether the op executes on the special-function unit.
    pub fn is_sfu(self) -> bool {
        matches!(self, BinOp::FDiv)
    }

    /// Whether the op is a multiply/divide-class integer op (longer latency
    /// than simple integer ALU on most of the modelled architectures).
    pub fn is_imul_class(self) -> bool {
        matches!(
            self,
            BinOp::IMul | BinOp::IMulHi | BinOp::IDiv | BinOp::UDiv | BinOp::IRem | BinOp::URem
        )
    }

    /// Whether the op is a floating-point operation.
    pub fn is_float(self) -> bool {
        matches!(
            self,
            BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv | BinOp::FMin | BinOp::FMax
        )
    }
}

/// Ternary ALU operations.
///
/// # Example
/// ```
/// use simt_isa::TerOp;
/// assert_eq!(TerOp::FFma.to_string(), "ffma");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TerOp {
    /// Integer multiply-add: `d = a * b + c` (wrapping).
    IMad,
    /// Float fused multiply-add: `d = a * b + c`.
    FFma,
}

/// Comparison operators for `SetP` instructions.
///
/// Integer comparisons come in signed (`S*`) and unsigned (`U*`) flavours;
/// float comparisons are ordered (a comparison with NaN yields `false`).
///
/// # Example
/// ```
/// use simt_isa::CmpOp;
/// assert_eq!(CmpOp::SLt.to_string(), "slt");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal (bit pattern for ints, IEEE equality for floats).
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    SLt,
    /// Signed less-or-equal.
    SLe,
    /// Signed greater-than.
    SGt,
    /// Signed greater-or-equal.
    SGe,
    /// Unsigned less-than.
    ULt,
    /// Unsigned less-or-equal.
    ULe,
    /// Unsigned greater-than.
    UGt,
    /// Unsigned greater-or-equal.
    UGe,
}

/// Read-modify-write operations for `Atom` instructions.
///
/// # Example
/// ```
/// use simt_isa::AtomOp;
/// assert_eq!(AtomOp::Add.to_string(), "add");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomOp {
    /// Integer add.
    Add,
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
    /// Exchange (store source, return old value).
    Exch,
}

/// Addressable memory spaces.
///
/// # Example
/// ```
/// use simt_isa::MemSpace;
/// assert_eq!(MemSpace::Shared.to_string(), "shared");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Device (global) memory, byte-addressed across the whole arena.
    Global,
    /// Per-block local/shared memory (LDS), byte-addressed from 0.
    Shared,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnOp::Mov => "mov",
            UnOp::INeg => "ineg",
            UnOp::IAbs => "iabs",
            UnOp::Not => "not",
            UnOp::FNeg => "fneg",
            UnOp::FAbs => "fabs",
            UnOp::FSqrt => "fsqrt",
            UnOp::FRcp => "frcp",
            UnOp::FExp2 => "fexp2",
            UnOp::FLog2 => "flog2",
            UnOp::I2F => "i2f",
            UnOp::U2F => "u2f",
            UnOp::F2I => "f2i",
            UnOp::F2U => "f2u",
            UnOp::Clz => "clz",
            UnOp::Popc => "popc",
        };
        f.write_str(s)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::IAdd => "iadd",
            BinOp::ISub => "isub",
            BinOp::IMul => "imul",
            BinOp::IMulHi => "imulhi",
            BinOp::IDiv => "idiv",
            BinOp::UDiv => "udiv",
            BinOp::IRem => "irem",
            BinOp::URem => "urem",
            BinOp::IMin => "imin",
            BinOp::IMax => "imax",
            BinOp::UMin => "umin",
            BinOp::UMax => "umax",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::AShr => "ashr",
            BinOp::FAdd => "fadd",
            BinOp::FSub => "fsub",
            BinOp::FMul => "fmul",
            BinOp::FDiv => "fdiv",
            BinOp::FMin => "fmin",
            BinOp::FMax => "fmax",
        };
        f.write_str(s)
    }
}

impl fmt::Display for TerOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TerOp::IMad => "imad",
            TerOp::FFma => "ffma",
        })
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::SLt => "slt",
            CmpOp::SLe => "sle",
            CmpOp::SGt => "sgt",
            CmpOp::SGe => "sge",
            CmpOp::ULt => "ult",
            CmpOp::ULe => "ule",
            CmpOp::UGt => "ugt",
            CmpOp::UGe => "uge",
        };
        f.write_str(s)
    }
}

impl fmt::Display for AtomOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AtomOp::Add => "add",
            AtomOp::Min => "min",
            AtomOp::Max => "max",
            AtomOp::Exch => "exch",
        })
    }
}

impl fmt::Display for MemSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MemSpace::Global => "global",
            MemSpace::Shared => "shared",
        })
    }
}

/// Evaluates a unary op on a 32-bit value.
///
/// This is the single source of truth for functional semantics; the
/// simulator calls it per active lane.
///
/// # Example
/// ```
/// use simt_isa::op::{eval_unop};
/// use simt_isa::UnOp;
/// assert_eq!(eval_unop(UnOp::INeg, 1), u32::MAX);
/// assert_eq!(eval_unop(UnOp::I2F, 2), 2.0f32.to_bits());
/// ```
#[inline]
pub fn eval_unop(op: UnOp, a: u32) -> u32 {
    match op {
        UnOp::Mov => a,
        UnOp::INeg => (a as i32).wrapping_neg() as u32,
        UnOp::IAbs => (a as i32).wrapping_abs() as u32,
        UnOp::Not => !a,
        UnOp::FNeg => (-f32::from_bits(a)).to_bits(),
        UnOp::FAbs => f32::from_bits(a).abs().to_bits(),
        UnOp::FSqrt => f32::from_bits(a).sqrt().to_bits(),
        UnOp::FRcp => (1.0 / f32::from_bits(a)).to_bits(),
        UnOp::FExp2 => f32::from_bits(a).exp2().to_bits(),
        UnOp::FLog2 => f32::from_bits(a).log2().to_bits(),
        UnOp::I2F => (a as i32 as f32).to_bits(),
        UnOp::U2F => (a as f32).to_bits(),
        UnOp::F2I => {
            let v = f32::from_bits(a);
            if v.is_nan() {
                0
            } else {
                (v as i64).clamp(i32::MIN as i64, i32::MAX as i64) as i32 as u32
            }
        }
        UnOp::F2U => {
            let v = f32::from_bits(a);
            if v.is_nan() {
                0
            } else {
                (v as i64).clamp(0, u32::MAX as i64) as u32
            }
        }
        UnOp::Clz => a.leading_zeros(),
        UnOp::Popc => a.count_ones(),
    }
}

/// Evaluates a binary op on two 32-bit values.
///
/// Integer division and remainder by zero produce 0 (GPUs emulate integer
/// division in software and never fault on it).
///
/// # Example
/// ```
/// use simt_isa::op::eval_binop;
/// use simt_isa::BinOp;
/// assert_eq!(eval_binop(BinOp::IAdd, 2, 3), 5);
/// assert_eq!(eval_binop(BinOp::UDiv, 7, 0), 0);
/// ```
#[inline]
pub fn eval_binop(op: BinOp, a: u32, b: u32) -> u32 {
    match op {
        BinOp::IAdd => a.wrapping_add(b),
        BinOp::ISub => a.wrapping_sub(b),
        BinOp::IMul => a.wrapping_mul(b),
        BinOp::IMulHi => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
        BinOp::IDiv => {
            if b == 0 {
                0
            } else {
                (a as i32).wrapping_div(b as i32) as u32
            }
        }
        BinOp::UDiv => a.checked_div(b).unwrap_or(0),
        BinOp::IRem => {
            if b == 0 {
                0
            } else {
                (a as i32).wrapping_rem(b as i32) as u32
            }
        }
        BinOp::URem => {
            if b == 0 {
                0
            } else {
                a % b
            }
        }
        BinOp::IMin => (a as i32).min(b as i32) as u32,
        BinOp::IMax => (a as i32).max(b as i32) as u32,
        BinOp::UMin => a.min(b),
        BinOp::UMax => a.max(b),
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b & 31),
        BinOp::Shr => a.wrapping_shr(b & 31),
        BinOp::AShr => ((a as i32).wrapping_shr(b & 31)) as u32,
        BinOp::FAdd => (f32::from_bits(a) + f32::from_bits(b)).to_bits(),
        BinOp::FSub => (f32::from_bits(a) - f32::from_bits(b)).to_bits(),
        BinOp::FMul => (f32::from_bits(a) * f32::from_bits(b)).to_bits(),
        BinOp::FDiv => (f32::from_bits(a) / f32::from_bits(b)).to_bits(),
        BinOp::FMin => f32::from_bits(a).min(f32::from_bits(b)).to_bits(),
        BinOp::FMax => f32::from_bits(a).max(f32::from_bits(b)).to_bits(),
    }
}

/// Evaluates a ternary op.
///
/// # Example
/// ```
/// use simt_isa::op::eval_terop;
/// use simt_isa::TerOp;
/// assert_eq!(eval_terop(TerOp::IMad, 2, 3, 4), 10);
/// ```
#[inline]
pub fn eval_terop(op: TerOp, a: u32, b: u32, c: u32) -> u32 {
    match op {
        TerOp::IMad => a.wrapping_mul(b).wrapping_add(c),
        TerOp::FFma => f32::from_bits(a)
            .mul_add(f32::from_bits(b), f32::from_bits(c))
            .to_bits(),
    }
}

/// Evaluates a comparison, returning the predicate value.
///
/// Float flavours are selected by `float`; ordered semantics (NaN compares
/// false except `Ne`).
///
/// # Example
/// ```
/// use simt_isa::op::eval_cmp;
/// use simt_isa::CmpOp;
/// assert!(eval_cmp(CmpOp::SLt, (-1i32) as u32, 1, false));
/// assert!(!eval_cmp(CmpOp::ULt, (-1i32) as u32, 1, false));
/// assert!(eval_cmp(CmpOp::SLt, 1.0f32.to_bits(), 2.0f32.to_bits(), true));
/// ```
#[inline]
pub fn eval_cmp(op: CmpOp, a: u32, b: u32, float: bool) -> bool {
    if float {
        let (x, y) = (f32::from_bits(a), f32::from_bits(b));
        match op {
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
            CmpOp::SLt | CmpOp::ULt => x < y,
            CmpOp::SLe | CmpOp::ULe => x <= y,
            CmpOp::SGt | CmpOp::UGt => x > y,
            CmpOp::SGe | CmpOp::UGe => x >= y,
        }
    } else {
        let (sa, sb) = (a as i32, b as i32);
        match op {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::SLt => sa < sb,
            CmpOp::SLe => sa <= sb,
            CmpOp::SGt => sa > sb,
            CmpOp::SGe => sa >= sb,
            CmpOp::ULt => a < b,
            CmpOp::ULe => a <= b,
            CmpOp::UGt => a > b,
            CmpOp::UGe => a >= b,
        }
    }
}

/// Matches `$op` once, then runs `$body` with `$k` bound to the matched
/// variant: inside each arm the op is a constant, so the per-lane
/// evaluation in `$body` folds to that one operation.
macro_rules! per_op {
    ($op:expr, $ty:ident [$($v:ident),*], |$k:ident| $body:expr) => {
        match $op {
            $($ty::$v => {
                let $k = $ty::$v;
                $body
            })*
        }
    };
}

/// Evaluates a unary op on a row of lanes: `out[l] = op(a[l])`, with one
/// op dispatch for the row. `out` is as long as the shorter of the two.
///
/// # Example
/// ```
/// use simt_isa::op::eval_unop_row;
/// use simt_isa::UnOp;
/// let mut out = [0; 3];
/// eval_unop_row(UnOp::INeg, &[1, 2, 3], &mut out);
/// assert_eq!(out, [u32::MAX, u32::MAX - 1, u32::MAX - 2]);
/// ```
pub fn eval_unop_row(op: UnOp, a: &[u32], out: &mut [u32]) {
    per_op!(
        op,
        UnOp[Mov, INeg, IAbs, Not, FNeg, FAbs, FSqrt, FRcp, FExp2, FLog2, I2F, U2F, F2I, F2U, Clz, Popc],
        |k| for (o, &x) in out.iter_mut().zip(a) {
            *o = eval_unop(k, x);
        }
    )
}

/// Evaluates a binary op on rows of lanes: `out[l] = op(a[l], b[l])`,
/// with one op dispatch for the row.
///
/// # Example
/// ```
/// use simt_isa::op::eval_binop_row;
/// use simt_isa::BinOp;
/// let mut out = [0; 2];
/// eval_binop_row(BinOp::IAdd, &[1, 2], &[10, 20], &mut out);
/// assert_eq!(out, [11, 22]);
/// ```
pub fn eval_binop_row(op: BinOp, a: &[u32], b: &[u32], out: &mut [u32]) {
    per_op!(
        op,
        BinOp[
            IAdd, ISub, IMul, IMulHi, IDiv, UDiv, IRem, URem, IMin, IMax, UMin, UMax, And, Or,
            Xor, Shl, Shr, AShr, FAdd, FSub, FMul, FDiv, FMin, FMax
        ],
        |k| for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = eval_binop(k, x, y);
        }
    )
}

/// Evaluates a ternary op on rows of lanes: `out[l] = op(a[l], b[l],
/// c[l])`, with one op dispatch for the row.
///
/// # Example
/// ```
/// use simt_isa::op::eval_terop_row;
/// use simt_isa::TerOp;
/// let mut out = [0; 2];
/// eval_terop_row(TerOp::IMad, &[2, 3], &[4, 5], &[1, 1], &mut out);
/// assert_eq!(out, [9, 16]);
/// ```
pub fn eval_terop_row(op: TerOp, a: &[u32], b: &[u32], c: &[u32], out: &mut [u32]) {
    per_op!(
        op,
        TerOp[IMad, FFma],
        |k| for (((o, &x), &y), &z) in out.iter_mut().zip(a).zip(b).zip(c) {
            *o = eval_terop(k, x, y, z);
        }
    )
}

/// Evaluates a comparison on rows of at most 64 lanes, returning the
/// predicate of lane `l` as bit `l`, with one op dispatch for the row.
///
/// # Example
/// ```
/// use simt_isa::op::eval_cmp_row;
/// use simt_isa::CmpOp;
/// assert_eq!(eval_cmp_row(CmpOp::ULt, &[1, 5, 2], &[3, 3, 3], false), 0b101);
/// ```
///
/// # Panics
///
/// Panics (debug assertions) if the rows are longer than 64 lanes.
pub fn eval_cmp_row(op: CmpOp, a: &[u32], b: &[u32], float: bool) -> u64 {
    debug_assert!(a.len().min(b.len()) <= 64, "a lane mask holds 64 lanes");
    let mut mask = 0;
    let rows = a.iter().zip(b).enumerate();
    per_op!(op, CmpOp[Eq, Ne, SLt, SLe, SGt, SGe, ULt, ULe, UGt, UGe], |k| {
        if float {
            for (l, (&x, &y)) in rows {
                mask |= (eval_cmp(k, x, y, true) as u64) << l;
            }
        } else {
            for (l, (&x, &y)) in rows {
                mask |= (eval_cmp(k, x, y, false) as u64) << l;
            }
        }
    });
    mask
}

/// Applies an atomic read-modify-write op, returning `(new, old)`.
///
/// # Example
/// ```
/// use simt_isa::op::eval_atom;
/// use simt_isa::AtomOp;
/// assert_eq!(eval_atom(AtomOp::Add, 10, 5), (15, 10));
/// assert_eq!(eval_atom(AtomOp::Exch, 10, 5), (5, 10));
/// ```
pub fn eval_atom(op: AtomOp, old: u32, src: u32) -> (u32, u32) {
    let new = match op {
        AtomOp::Add => old.wrapping_add(src),
        AtomOp::Min => (old as i32).min(src as i32) as u32,
        AtomOp::Max => (old as i32).max(src as i32) as u32,
        AtomOp::Exch => src,
    };
    (new, old)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_arith() {
        assert_eq!(eval_binop(BinOp::IAdd, u32::MAX, 1), 0);
        assert_eq!(eval_binop(BinOp::ISub, 0, 1), u32::MAX);
        assert_eq!(eval_binop(BinOp::IMul, 3, 7), 21);
        assert_eq!(eval_binop(BinOp::IMulHi, 0x8000_0000, 2), u32::MAX);
        assert_eq!(eval_binop(BinOp::IDiv, (-9i32) as u32, 2), (-4i32) as u32);
        assert_eq!(eval_binop(BinOp::IDiv, 5, 0), 0);
        assert_eq!(eval_binop(BinOp::IRem, 9, 0), 0);
        assert_eq!(eval_binop(BinOp::URem, 9, 4), 1);
    }

    #[test]
    fn minmax_signedness() {
        assert_eq!(
            eval_binop(BinOp::IMin, (-1i32) as u32, 1),
            (-1i32) as u32,
            "signed min"
        );
        assert_eq!(
            eval_binop(BinOp::UMin, (-1i32) as u32, 1),
            1,
            "unsigned min"
        );
        assert_eq!(eval_binop(BinOp::IMax, (-1i32) as u32, 1), 1);
        assert_eq!(eval_binop(BinOp::UMax, (-1i32) as u32, 1), u32::MAX);
    }

    #[test]
    fn shifts_mask_amount() {
        assert_eq!(eval_binop(BinOp::Shl, 1, 33), 2, "shift masked mod 32");
        assert_eq!(eval_binop(BinOp::Shr, 0x8000_0000, 31), 1);
        assert_eq!(
            eval_binop(BinOp::AShr, 0x8000_0000, 31),
            u32::MAX,
            "arithmetic shift sign-extends"
        );
    }

    #[test]
    fn float_arith() {
        let f = |v: f32| v.to_bits();
        assert_eq!(eval_binop(BinOp::FAdd, f(1.5), f(2.5)), f(4.0));
        assert_eq!(eval_binop(BinOp::FDiv, f(1.0), f(0.0)), f(f32::INFINITY));
        assert_eq!(eval_terop(TerOp::FFma, f(2.0), f(3.0), f(1.0)), f(7.0));
        assert_eq!(eval_unop(UnOp::FSqrt, f(9.0)), f(3.0));
        assert_eq!(eval_unop(UnOp::FRcp, f(4.0)), f(0.25));
    }

    #[test]
    fn conversions_saturate() {
        assert_eq!(eval_unop(UnOp::F2I, 3e10f32.to_bits()), i32::MAX as u32);
        assert_eq!(eval_unop(UnOp::F2I, (-3e10f32).to_bits()), i32::MIN as u32);
        assert_eq!(eval_unop(UnOp::F2U, (-1.0f32).to_bits()), 0);
        assert_eq!(eval_unop(UnOp::F2I, f32::NAN.to_bits()), 0);
        assert_eq!(eval_unop(UnOp::I2F, (-3i32) as u32), (-3.0f32).to_bits());
        assert_eq!(eval_unop(UnOp::U2F, u32::MAX), (u32::MAX as f32).to_bits());
    }

    #[test]
    fn bit_ops() {
        assert_eq!(eval_unop(UnOp::Clz, 1), 31);
        assert_eq!(eval_unop(UnOp::Popc, 0xff), 8);
        assert_eq!(eval_unop(UnOp::Not, 0), u32::MAX);
    }

    #[test]
    fn comparisons() {
        assert!(eval_cmp(CmpOp::Eq, 5, 5, false));
        assert!(eval_cmp(CmpOp::Ne, 5, 6, false));
        assert!(eval_cmp(CmpOp::SGe, 0, (-1i32) as u32, false));
        assert!(!eval_cmp(CmpOp::UGe, 0, (-1i32) as u32, false));
        // NaN: ordered comparisons false, Ne true.
        let nan = f32::NAN.to_bits();
        assert!(!eval_cmp(CmpOp::Eq, nan, nan, true));
        assert!(eval_cmp(CmpOp::Ne, nan, nan, true));
        assert!(!eval_cmp(CmpOp::SLt, nan, 0, true));
    }

    #[test]
    fn atomics() {
        assert_eq!(eval_atom(AtomOp::Min, 3, (-7i32) as u32).0, (-7i32) as u32);
        assert_eq!(eval_atom(AtomOp::Max, 3, 9), (9, 3));
        assert_eq!(eval_atom(AtomOp::Add, u32::MAX, 1).0, 0);
    }

    /// Words that reach the edge cases: zero, signs, NaN, infinities,
    /// denormals and shift amounts past 31.
    const EDGES: [u32; 12] = [
        0,
        1,
        2,
        33,
        u32::MAX,
        0x8000_0000,
        0x7fff_ffff,
        0x7fc0_0000, // NaN
        0x7f80_0000, // +inf
        0xff80_0000, // -inf
        0x0000_0001, // smallest denormal
        0x4049_0fdb, // pi
    ];

    /// Every ordered pair of edge words as two rows.
    fn pairs() -> (Vec<u32>, Vec<u32>) {
        EDGES
            .iter()
            .flat_map(|&x| EDGES.iter().map(move |&y| (x, y)))
            .unzip()
    }

    #[test]
    fn row_forms_match_the_per_lane_ops() {
        use UnOp::*;
        let (a, b) = pairs();
        let c: Vec<u32> = a.iter().rev().copied().collect();
        let mut out = vec![0; a.len()];
        for op in [
            Mov, INeg, IAbs, Not, FNeg, FAbs, FSqrt, FRcp, FExp2, FLog2, I2F, U2F, F2I, F2U, Clz,
            Popc,
        ] {
            eval_unop_row(op, &a, &mut out);
            assert!(
                a.iter().zip(&out).all(|(&x, &o)| o == eval_unop(op, x)),
                "{op}"
            );
        }
        for op in [
            BinOp::IAdd,
            BinOp::ISub,
            BinOp::IMul,
            BinOp::IMulHi,
            BinOp::IDiv,
            BinOp::UDiv,
            BinOp::IRem,
            BinOp::URem,
            BinOp::IMin,
            BinOp::IMax,
            BinOp::UMin,
            BinOp::UMax,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::Shr,
            BinOp::AShr,
            BinOp::FAdd,
            BinOp::FSub,
            BinOp::FMul,
            BinOp::FDiv,
            BinOp::FMin,
            BinOp::FMax,
        ] {
            eval_binop_row(op, &a, &b, &mut out);
            let want = a.iter().zip(&b).map(|(&x, &y)| eval_binop(op, x, y));
            assert!(want.eq(out.iter().copied()), "{op}");
        }
        for op in [TerOp::IMad, TerOp::FFma] {
            eval_terop_row(op, &a, &b, &c, &mut out);
            for l in 0..a.len() {
                assert_eq!(out[l], eval_terop(op, a[l], b[l], c[l]), "{op}");
            }
        }
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::SLt,
            CmpOp::SLe,
            CmpOp::SGt,
            CmpOp::SGe,
            CmpOp::ULt,
            CmpOp::ULe,
            CmpOp::UGt,
            CmpOp::UGe,
        ] {
            for float in [false, true] {
                for chunk in (0..a.len()).step_by(64) {
                    let end = (chunk + 64).min(a.len());
                    let mask = eval_cmp_row(op, &a[chunk..end], &b[chunk..end], float);
                    for l in chunk..end {
                        let bit = mask >> (l - chunk) & 1 == 1;
                        assert_eq!(bit, eval_cmp(op, a[l], b[l], float), "{op} {float}");
                    }
                }
            }
        }
    }

    #[test]
    fn op_classes() {
        assert!(UnOp::FExp2.is_sfu());
        assert!(!UnOp::Mov.is_sfu());
        assert!(BinOp::IDiv.is_imul_class());
        assert!(!BinOp::IAdd.is_imul_class());
        assert!(BinOp::FMin.is_float());
        assert!(UnOp::I2F.is_float());
    }
}
