//! The MASS instruction set.

use crate::op::{AtomOp, BinOp, CmpOp, MemSpace, TerOp, UnOp};
use crate::reg::{Operand, PReg, Reg};
use std::fmt;

/// A single MASS instruction.
///
/// Data instructions name an explicit destination register whose class
/// (vector vs scalar) decides whether the instruction executes per lane or
/// once per warp. Control flow is *structured*: `IfBegin`/`Else`/`IfEnd`
/// and `LoopBegin`/`Break`/`LoopEnd` nest properly (the
/// [`crate::KernelBuilder`] validator rejects malformed nesting) and drive
/// the simulator's SIMT reconvergence stack.
///
/// # Example
/// ```
/// use simt_isa::{Instr, VReg, Operand, BinOp};
/// let i = Instr::Bin {
///     op: BinOp::IAdd,
///     dst: VReg(0).into(),
///     a: VReg(1).into(),
///     b: Operand::Imm(4),
/// };
/// assert_eq!(i.to_string(), "iadd v0, v1, 0x4");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// Unary ALU operation: `dst = op(a)`.
    Un {
        /// Operation.
        op: UnOp,
        /// Destination register.
        dst: Reg,
        /// Source operand.
        a: Operand,
    },
    /// Binary ALU operation: `dst = op(a, b)`.
    Bin {
        /// Operation.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left source.
        a: Operand,
        /// Right source.
        b: Operand,
    },
    /// Ternary ALU operation: `dst = op(a, b, c)`.
    Ter {
        /// Operation.
        op: TerOp,
        /// Destination register.
        dst: Reg,
        /// First source.
        a: Operand,
        /// Second source.
        b: Operand,
        /// Third source.
        c: Operand,
    },
    /// Predicate-setting comparison: `pd = cmp(a, b)`.
    SetP {
        /// Comparison operator.
        op: CmpOp,
        /// Interpret operands as `f32`.
        float: bool,
        /// Destination predicate.
        pd: PReg,
        /// Left source.
        a: Operand,
        /// Right source.
        b: Operand,
    },
    /// Predicated select: `dst = p ? a : b`.
    Sel {
        /// Steering predicate.
        p: PReg,
        /// Destination register.
        dst: Reg,
        /// Value when `p` is true.
        a: Operand,
        /// Value when `p` is false.
        b: Operand,
    },
    /// Load a 32-bit word: `dst = space[addr + offset]`.
    Ld {
        /// Memory space.
        space: MemSpace,
        /// Destination register.
        dst: Reg,
        /// Byte address base.
        addr: Operand,
        /// Constant byte offset.
        offset: i32,
    },
    /// Store a 32-bit word: `space[addr + offset] = src`.
    St {
        /// Memory space.
        space: MemSpace,
        /// Byte address base.
        addr: Operand,
        /// Constant byte offset.
        offset: i32,
        /// Value to store.
        src: Operand,
    },
    /// Atomic read-modify-write on a 32-bit word; the old value is written
    /// to `dst`.
    Atom {
        /// Memory space (global or shared).
        space: MemSpace,
        /// Read-modify-write operation.
        op: AtomOp,
        /// Receives the pre-op value.
        dst: Reg,
        /// Byte address base.
        addr: Operand,
        /// Constant byte offset.
        offset: i32,
        /// Operation source value.
        src: Operand,
    },
    /// Block-wide barrier (`bar.sync`). Exited warps do not participate.
    Bar,
    /// Open a divergent region for lanes where the predicate holds
    /// (inverted when `negate` is set).
    IfBegin {
        /// Steering predicate.
        p: PReg,
        /// Take the branch where `p` is false instead.
        negate: bool,
    },
    /// Switch a divergent region to the complementary lane set.
    Else,
    /// Close a divergent region and reconverge.
    IfEnd,
    /// Open a loop region (lanes iterate until all have broken out).
    LoopBegin,
    /// Leave the enclosing loop for lanes where the predicate holds
    /// (inverted when `negate` is set).
    Break {
        /// Steering predicate.
        p: PReg,
        /// Break where `p` is false instead.
        negate: bool,
    },
    /// Close a loop region: jump back while any lane remains active.
    LoopEnd,
    /// Terminate the thread (all remaining lanes of the warp).
    Exit,
    /// No operation (issue slot filler).
    Nop,
}

impl Instr {
    /// The destination general-purpose register, if the instruction writes
    /// one.
    ///
    /// # Example
    /// ```
    /// use simt_isa::{Instr, VReg, Reg, Operand, UnOp};
    /// let i = Instr::Un { op: UnOp::Mov, dst: VReg(1).into(), a: Operand::Imm(0) };
    /// assert_eq!(i.dst_reg(), Some(Reg::V(VReg(1))));
    /// assert_eq!(Instr::Bar.dst_reg(), None);
    /// ```
    pub fn dst_reg(&self) -> Option<Reg> {
        match *self {
            Instr::Un { dst, .. }
            | Instr::Bin { dst, .. }
            | Instr::Ter { dst, .. }
            | Instr::Sel { dst, .. }
            | Instr::Ld { dst, .. }
            | Instr::Atom { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// All register-source operands of the instruction.
    ///
    /// # Example
    /// ```
    /// use simt_isa::{Instr, VReg, Operand, BinOp};
    /// let i = Instr::Bin { op: BinOp::IAdd, dst: VReg(0).into(),
    ///                      a: VReg(1).into(), b: Operand::Imm(1) };
    /// assert_eq!(i.src_operands().len(), 2);
    /// ```
    pub fn src_operands(&self) -> Vec<Operand> {
        let mut v = Vec::new();
        self.for_each_src(|op| v.push(op));
        v
    }

    /// Calls `f` for every source operand without allocating (hot-path
    /// variant of [`Instr::src_operands`], used by the simulator's
    /// scoreboard check).
    pub fn for_each_src<F: FnMut(Operand)>(&self, mut f: F) {
        match *self {
            Instr::Un { a, .. } => f(a),
            Instr::Bin { a, b, .. } | Instr::SetP { a, b, .. } | Instr::Sel { a, b, .. } => {
                f(a);
                f(b);
            }
            Instr::Ter { a, b, c, .. } => {
                f(a);
                f(b);
                f(c);
            }
            Instr::Ld { addr, .. } => f(addr),
            Instr::St { addr, src, .. } | Instr::Atom { addr, src, .. } => {
                f(addr);
                f(src);
            }
            _ => {}
        }
    }

    /// The predicate register read by the instruction, if any.
    pub fn src_pred(&self) -> Option<PReg> {
        match *self {
            Instr::Sel { p, .. } | Instr::IfBegin { p, .. } | Instr::Break { p, .. } => Some(p),
            _ => None,
        }
    }

    /// The predicate register written by the instruction, if any.
    pub fn dst_pred(&self) -> Option<PReg> {
        match *self {
            Instr::SetP { pd, .. } => Some(pd),
            _ => None,
        }
    }

    /// Whether the instruction accesses memory (load/store/atomic).
    pub fn is_mem(&self) -> bool {
        matches!(
            self,
            Instr::Ld { .. } | Instr::St { .. } | Instr::Atom { .. }
        )
    }

    /// Whether the instruction is structured control flow.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Instr::IfBegin { .. }
                | Instr::Else
                | Instr::IfEnd
                | Instr::LoopBegin
                | Instr::Break { .. }
                | Instr::LoopEnd
                | Instr::Exit
        )
    }

    /// Whether the instruction executes once per warp (scalar destination)
    /// rather than per lane.
    ///
    /// Control flow, barriers and stores are lane-wise by definition; a data
    /// instruction is scalar iff its destination is a scalar register.
    pub fn is_scalar(&self) -> bool {
        matches!(self.dst_reg(), Some(Reg::S(_)))
    }
}

fn fmt_mem(
    f: &mut fmt::Formatter<'_>,
    name: &str,
    space: MemSpace,
    addr: &Operand,
    offset: i32,
) -> fmt::Result {
    if offset == 0 {
        write!(f, "{name}.{space} [{addr}]")
    } else if offset > 0 {
        write!(f, "{name}.{space} [{addr}+{offset}]")
    } else {
        write!(f, "{name}.{space} [{addr}{offset}]")
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Un { op, dst, a } => write!(f, "{op} {dst}, {a}"),
            Instr::Bin { op, dst, a, b } => write!(f, "{op} {dst}, {a}, {b}"),
            Instr::Ter { op, dst, a, b, c } => write!(f, "{op} {dst}, {a}, {b}, {c}"),
            Instr::SetP {
                op,
                float,
                pd,
                a,
                b,
            } => {
                let ty = if *float { "f32" } else { "s32" };
                write!(f, "setp.{op}.{ty} {pd}, {a}, {b}")
            }
            Instr::Sel { p, dst, a, b } => write!(f, "sel {dst}, {a}, {b}, {p}"),
            Instr::Ld {
                space,
                dst,
                addr,
                offset,
            } => {
                fmt_mem(f, "ld", *space, addr, *offset)?;
                write!(f, " -> {dst}")
            }
            Instr::St {
                space,
                addr,
                offset,
                src,
            } => {
                fmt_mem(f, "st", *space, addr, *offset)?;
                write!(f, " <- {src}")
            }
            Instr::Atom {
                space,
                op,
                dst,
                addr,
                offset,
                src,
            } => {
                write!(f, "atom.{op}.{space} {dst}, ")?;
                if *offset == 0 {
                    write!(f, "[{addr}], {src}")
                } else {
                    write!(f, "[{addr}+{offset}], {src}")
                }
            }
            Instr::Bar => f.write_str("bar.sync"),
            Instr::IfBegin { p, negate } => {
                if *negate {
                    write!(f, "if.begin !{p}")
                } else {
                    write!(f, "if.begin {p}")
                }
            }
            Instr::Else => f.write_str("else"),
            Instr::IfEnd => f.write_str("if.end"),
            Instr::LoopBegin => f.write_str("loop.begin"),
            Instr::Break { p, negate } => {
                if *negate {
                    write!(f, "break !{p}")
                } else {
                    write!(f, "break {p}")
                }
            }
            Instr::LoopEnd => f.write_str("loop.end"),
            Instr::Exit => f.write_str("exit"),
            Instr::Nop => f.write_str("nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{SReg, VReg};

    #[test]
    fn display() {
        let i = Instr::Ld {
            space: MemSpace::Shared,
            dst: VReg(2).into(),
            addr: VReg(1).into(),
            offset: 8,
        };
        assert_eq!(i.to_string(), "ld.shared [v1+8] -> v2");
        let s = Instr::St {
            space: MemSpace::Global,
            addr: VReg(0).into(),
            offset: -4,
            src: Operand::Imm(1),
        };
        assert_eq!(s.to_string(), "st.global [v0-4] <- 0x1");
        assert_eq!(Instr::Bar.to_string(), "bar.sync");
        assert_eq!(
            Instr::IfBegin {
                p: PReg(0),
                negate: true
            }
            .to_string(),
            "if.begin !p0"
        );
        let sp = Instr::SetP {
            op: CmpOp::ULt,
            float: false,
            pd: PReg(1),
            a: VReg(0).into(),
            b: Operand::Imm(16),
        };
        assert_eq!(sp.to_string(), "setp.ult.s32 p1, v0, 0x10");
    }

    #[test]
    fn dst_and_sources() {
        let i = Instr::Atom {
            space: MemSpace::Shared,
            op: AtomOp::Add,
            dst: VReg(3).into(),
            addr: VReg(1).into(),
            offset: 0,
            src: VReg(2).into(),
        };
        assert_eq!(i.dst_reg(), Some(Reg::V(VReg(3))));
        assert_eq!(i.src_operands().len(), 2);
        assert!(i.is_mem());
        assert!(!i.is_control());
    }

    #[test]
    fn scalar_classification() {
        let sc = Instr::Bin {
            op: BinOp::IAdd,
            dst: SReg(0).into(),
            a: SReg(1).into(),
            b: Operand::Imm(1),
        };
        assert!(sc.is_scalar());
        let ve = Instr::Bin {
            op: BinOp::IAdd,
            dst: VReg(0).into(),
            a: SReg(1).into(),
            b: Operand::Imm(1),
        };
        assert!(!ve.is_scalar());
    }

    #[test]
    fn predicates() {
        let sp = Instr::SetP {
            op: CmpOp::Eq,
            float: false,
            pd: PReg(2),
            a: VReg(0).into(),
            b: Operand::Imm(0),
        };
        assert_eq!(sp.dst_pred(), Some(PReg(2)));
        assert_eq!(sp.src_pred(), None);
        let br = Instr::Break {
            p: PReg(1),
            negate: false,
        };
        assert_eq!(br.src_pred(), Some(PReg(1)));
        assert!(br.is_control());
    }
}
