//! Kernels and the validating [`KernelBuilder`].

use crate::cfg::ControlMap;
use crate::error::IsaError;
use crate::instr::Instr;
use crate::op::{AtomOp, BinOp, CmpOp, MemSpace, TerOp, UnOp};
use crate::reg::{Operand, PReg, Reg, SReg, Special, VReg};
use std::fmt;

/// Maximum vector registers a kernel may declare per thread.
pub const MAX_VREGS: u16 = 256;
/// Maximum scalar registers a kernel may declare per warp.
pub const MAX_SREGS: u16 = 104;
/// Maximum predicate registers per lane.
pub const MAX_PREGS: u8 = 8;
/// Maximum static shared memory per block, in bytes.
pub const MAX_SHARED_BYTES: u32 = 1 << 20;
/// Maximum kernel parameters (each one 32-bit word in `s0..`).
pub const MAX_PARAMS: u16 = 32;

/// A validated, immutable MASS kernel.
///
/// Produced by [`KernelBuilder::build`]; consumed (after
/// [`crate::lower::lower`]-ing) by the simulator.
///
/// # Example
/// ```
/// use simt_isa::KernelBuilder;
/// let mut b = KernelBuilder::new("noop", 0);
/// b.exit();
/// let k = b.build()?;
/// assert_eq!(k.name(), "noop");
/// assert_eq!(k.len(), 1);
/// # Ok::<(), simt_isa::IsaError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    name: String,
    body: Vec<Instr>,
    num_vregs: u16,
    num_sregs: u16,
    num_pregs: u8,
    num_params: u16,
    shared_bytes: u32,
    control: ControlMap,
}

impl Kernel {
    /// Kernel name (for reports and disassembly headers).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction stream.
    pub fn body(&self) -> &[Instr] {
        &self.body
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.body.len()
    }

    /// Whether the body is empty (never true for built kernels).
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }

    /// Declared per-thread vector registers.
    pub fn num_vregs(&self) -> u16 {
        self.num_vregs
    }

    /// Declared per-warp scalar registers (including parameter registers).
    pub fn num_sregs(&self) -> u16 {
        self.num_sregs
    }

    /// Declared per-lane predicate registers.
    pub fn num_pregs(&self) -> u8 {
        self.num_pregs
    }

    /// Number of 32-bit kernel parameters (preloaded into `s0..`).
    pub fn num_params(&self) -> u16 {
        self.num_params
    }

    /// Static shared-memory (LDS) footprint per block, in bytes.
    pub fn shared_bytes(&self) -> u32 {
        self.shared_bytes
    }

    /// The pre-resolved structured-control-flow map.
    pub fn control(&self) -> &ControlMap {
        &self.control
    }

    /// Renders the kernel as human-readable assembly.
    ///
    /// # Example
    /// ```
    /// use simt_isa::KernelBuilder;
    /// let mut b = KernelBuilder::new("k", 0);
    /// b.exit();
    /// let text = b.build()?.disassemble();
    /// assert!(text.contains(".kernel k"));
    /// assert!(text.contains("exit"));
    /// # Ok::<(), simt_isa::IsaError>(())
    /// ```
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        use fmt::Write;
        let _ = writeln!(
            out,
            ".kernel {} // vregs={} sregs={} pregs={} params={} shared={}B",
            self.name,
            self.num_vregs,
            self.num_sregs,
            self.num_pregs,
            self.num_params,
            self.shared_bytes
        );
        let mut indent = 1usize;
        for (i, ins) in self.body.iter().enumerate() {
            let closes = matches!(ins, Instr::Else | Instr::IfEnd | Instr::LoopEnd);
            if closes {
                indent = indent.saturating_sub(1);
            }
            let _ = writeln!(out, "{i:4}: {}{}", "  ".repeat(indent), ins);
            if matches!(ins, Instr::IfBegin { .. } | Instr::Else | Instr::LoopBegin) {
                indent += 1;
            }
        }
        out
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.disassemble())
    }
}

/// Incrementally builds and validates a [`Kernel`].
///
/// Registers are allocated through [`KernelBuilder::vreg`],
/// [`KernelBuilder::sreg`] and [`KernelBuilder::preg`]; the `n` kernel
/// parameters occupy scalar registers `s0..s{n-1}` and are retrieved with
/// [`KernelBuilder::param`]. Emission methods append one instruction each
/// and mirror the ISA mnemonics.
///
/// # Example
/// ```
/// use simt_isa::{KernelBuilder, MemSpace};
/// // out[gid] = in[gid] * 2.0
/// let mut b = KernelBuilder::new("scale", 2);
/// let (src, dst) = (b.param(0), b.param(1));
/// let gid = b.vreg();
/// let addr = b.vreg();
/// let v = b.vreg();
/// b.global_tid_x(gid);
/// b.shl(addr, gid, 2u32);
/// b.iadd(addr, addr, src);
/// b.ld(MemSpace::Global, v, addr);
/// b.fmul(v, v, 2.0f32.to_bits());
/// b.isub(addr, addr, src);
/// b.iadd(addr, addr, dst);
/// b.st(MemSpace::Global, addr, v);
/// let k = b.build()?;
/// assert_eq!(k.num_params(), 2);
/// # Ok::<(), simt_isa::IsaError>(())
/// ```
#[derive(Debug, Clone)]
pub struct KernelBuilder {
    name: String,
    body: Vec<Instr>,
    next_vreg: u16,
    next_sreg: u16,
    next_preg: u8,
    num_params: u16,
    shared_bytes: u32,
}

impl KernelBuilder {
    /// Starts a kernel with `num_params` 32-bit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `num_params` exceeds [`MAX_PARAMS`].
    pub fn new(name: impl Into<String>, num_params: u16) -> Self {
        assert!(
            num_params <= MAX_PARAMS,
            "kernel declares {num_params} params, limit is {MAX_PARAMS}"
        );
        KernelBuilder {
            name: name.into(),
            body: Vec::new(),
            next_vreg: 0,
            next_sreg: num_params,
            next_preg: 0,
            num_params,
            shared_bytes: 0,
        }
    }

    /// The scalar register holding parameter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a declared parameter index.
    pub fn param(&self, i: u16) -> SReg {
        assert!(i < self.num_params, "parameter {i} not declared");
        SReg(i)
    }

    /// Allocates a fresh per-thread vector register.
    pub fn vreg(&mut self) -> VReg {
        let r = VReg(self.next_vreg);
        self.next_vreg += 1;
        r
    }

    /// Allocates `n` consecutive vector registers, returning the first.
    pub fn vregs(&mut self, n: u16) -> VReg {
        let r = VReg(self.next_vreg);
        self.next_vreg += n;
        r
    }

    /// Allocates a fresh per-warp scalar register.
    pub fn sreg(&mut self) -> SReg {
        let r = SReg(self.next_sreg);
        self.next_sreg += 1;
        r
    }

    /// Allocates a fresh predicate register.
    pub fn preg(&mut self) -> PReg {
        let r = PReg(self.next_preg);
        self.next_preg += 1;
        r
    }

    /// Declares `bytes` of static shared memory (accumulative).
    ///
    /// Returns the byte offset of the newly declared region so multiple
    /// logical arrays can share the LDS.
    pub fn shared(&mut self, bytes: u32) -> u32 {
        let off = self.shared_bytes;
        self.shared_bytes += bytes;
        off
    }

    /// Appends a raw instruction (escape hatch; still validated by
    /// [`KernelBuilder::build`]).
    pub fn push(&mut self, ins: Instr) -> &mut Self {
        self.body.push(ins);
        self
    }

    // ---- unary ----

    fn un(&mut self, op: UnOp, dst: impl Into<Reg>, a: impl Into<Operand>) -> &mut Self {
        self.push(Instr::Un {
            op,
            dst: dst.into(),
            a: a.into(),
        })
    }

    /// `dst = a` (register/immediate/special copy).
    pub fn mov(&mut self, dst: impl Into<Reg>, a: impl Into<Operand>) -> &mut Self {
        self.un(UnOp::Mov, dst, a)
    }

    /// `dst = f32 immediate` (convenience over [`KernelBuilder::mov`]).
    pub fn movf(&mut self, dst: impl Into<Reg>, v: f32) -> &mut Self {
        self.un(UnOp::Mov, dst, Operand::from_f32(v))
    }

    /// `dst = -a` (two's complement).
    pub fn ineg(&mut self, dst: impl Into<Reg>, a: impl Into<Operand>) -> &mut Self {
        self.un(UnOp::INeg, dst, a)
    }

    /// `dst = |a|` (signed).
    pub fn iabs(&mut self, dst: impl Into<Reg>, a: impl Into<Operand>) -> &mut Self {
        self.un(UnOp::IAbs, dst, a)
    }

    /// `dst = !a` (bitwise).
    pub fn not(&mut self, dst: impl Into<Reg>, a: impl Into<Operand>) -> &mut Self {
        self.un(UnOp::Not, dst, a)
    }

    /// `dst = -a` (float).
    pub fn fneg(&mut self, dst: impl Into<Reg>, a: impl Into<Operand>) -> &mut Self {
        self.un(UnOp::FNeg, dst, a)
    }

    /// `dst = |a|` (float).
    pub fn fabs(&mut self, dst: impl Into<Reg>, a: impl Into<Operand>) -> &mut Self {
        self.un(UnOp::FAbs, dst, a)
    }

    /// `dst = sqrt(a)`.
    pub fn fsqrt(&mut self, dst: impl Into<Reg>, a: impl Into<Operand>) -> &mut Self {
        self.un(UnOp::FSqrt, dst, a)
    }

    /// `dst = 1/a`.
    pub fn frcp(&mut self, dst: impl Into<Reg>, a: impl Into<Operand>) -> &mut Self {
        self.un(UnOp::FRcp, dst, a)
    }

    /// `dst = 2^a`.
    pub fn fexp2(&mut self, dst: impl Into<Reg>, a: impl Into<Operand>) -> &mut Self {
        self.un(UnOp::FExp2, dst, a)
    }

    /// `dst = log2(a)`.
    pub fn flog2(&mut self, dst: impl Into<Reg>, a: impl Into<Operand>) -> &mut Self {
        self.un(UnOp::FLog2, dst, a)
    }

    /// `dst = (f32) (i32) a`.
    pub fn i2f(&mut self, dst: impl Into<Reg>, a: impl Into<Operand>) -> &mut Self {
        self.un(UnOp::I2F, dst, a)
    }

    /// `dst = (f32) (u32) a`.
    pub fn u2f(&mut self, dst: impl Into<Reg>, a: impl Into<Operand>) -> &mut Self {
        self.un(UnOp::U2F, dst, a)
    }

    /// `dst = (i32) (f32) a` (truncating, saturating).
    pub fn f2i(&mut self, dst: impl Into<Reg>, a: impl Into<Operand>) -> &mut Self {
        self.un(UnOp::F2I, dst, a)
    }

    /// `dst = (u32) (f32) a` (truncating, saturating).
    pub fn f2u(&mut self, dst: impl Into<Reg>, a: impl Into<Operand>) -> &mut Self {
        self.un(UnOp::F2U, dst, a)
    }

    // ---- binary ----

    fn bin(
        &mut self,
        op: BinOp,
        dst: impl Into<Reg>,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.push(Instr::Bin {
            op,
            dst: dst.into(),
            a: a.into(),
            b: b.into(),
        })
    }

    /// `dst = a + b` (wrapping).
    pub fn iadd(
        &mut self,
        d: impl Into<Reg>,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.bin(BinOp::IAdd, d, a, b)
    }

    /// `dst = a - b` (wrapping).
    pub fn isub(
        &mut self,
        d: impl Into<Reg>,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.bin(BinOp::ISub, d, a, b)
    }

    /// `dst = a * b` (low 32 bits).
    pub fn imul(
        &mut self,
        d: impl Into<Reg>,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.bin(BinOp::IMul, d, a, b)
    }

    /// `dst = a / b` (signed; 0 on b == 0).
    pub fn idiv(
        &mut self,
        d: impl Into<Reg>,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.bin(BinOp::IDiv, d, a, b)
    }

    /// `dst = a / b` (unsigned; 0 on b == 0).
    pub fn udiv(
        &mut self,
        d: impl Into<Reg>,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.bin(BinOp::UDiv, d, a, b)
    }

    /// `dst = a % b` (unsigned; 0 on b == 0).
    pub fn urem(
        &mut self,
        d: impl Into<Reg>,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.bin(BinOp::URem, d, a, b)
    }

    /// `dst = min(a, b)` (signed).
    pub fn imin(
        &mut self,
        d: impl Into<Reg>,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.bin(BinOp::IMin, d, a, b)
    }

    /// `dst = max(a, b)` (signed).
    pub fn imax(
        &mut self,
        d: impl Into<Reg>,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.bin(BinOp::IMax, d, a, b)
    }

    /// `dst = a & b`.
    pub fn and(
        &mut self,
        d: impl Into<Reg>,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.bin(BinOp::And, d, a, b)
    }

    /// `dst = a | b`.
    pub fn or(
        &mut self,
        d: impl Into<Reg>,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.bin(BinOp::Or, d, a, b)
    }

    /// `dst = a ^ b`.
    pub fn xor(
        &mut self,
        d: impl Into<Reg>,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.bin(BinOp::Xor, d, a, b)
    }

    /// `dst = a << b`.
    pub fn shl(
        &mut self,
        d: impl Into<Reg>,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.bin(BinOp::Shl, d, a, b)
    }

    /// `dst = a >> b` (logical).
    pub fn shr(
        &mut self,
        d: impl Into<Reg>,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.bin(BinOp::Shr, d, a, b)
    }

    /// `dst = a >> b` (arithmetic).
    pub fn ashr(
        &mut self,
        d: impl Into<Reg>,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.bin(BinOp::AShr, d, a, b)
    }

    /// Alias of [`KernelBuilder::shl`] with an immediate shift.
    pub fn shl_imm(&mut self, d: impl Into<Reg>, a: impl Into<Operand>, sh: u32) -> &mut Self {
        self.bin(BinOp::Shl, d, a, Operand::Imm(sh))
    }

    /// `dst = a + b` (float).
    pub fn fadd(
        &mut self,
        d: impl Into<Reg>,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.bin(BinOp::FAdd, d, a, b)
    }

    /// `dst = a - b` (float).
    pub fn fsub(
        &mut self,
        d: impl Into<Reg>,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.bin(BinOp::FSub, d, a, b)
    }

    /// `dst = a * b` (float).
    pub fn fmul(
        &mut self,
        d: impl Into<Reg>,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.bin(BinOp::FMul, d, a, b)
    }

    /// `dst = a / b` (float).
    pub fn fdiv(
        &mut self,
        d: impl Into<Reg>,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.bin(BinOp::FDiv, d, a, b)
    }

    /// `dst = min(a, b)` (float).
    pub fn fmin(
        &mut self,
        d: impl Into<Reg>,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.bin(BinOp::FMin, d, a, b)
    }

    /// `dst = max(a, b)` (float).
    pub fn fmax(
        &mut self,
        d: impl Into<Reg>,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.bin(BinOp::FMax, d, a, b)
    }

    // ---- ternary ----

    /// `dst = a * b + c` (integer, wrapping).
    pub fn imad(
        &mut self,
        d: impl Into<Reg>,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
        c: impl Into<Operand>,
    ) -> &mut Self {
        self.push(Instr::Ter {
            op: TerOp::IMad,
            dst: d.into(),
            a: a.into(),
            b: b.into(),
            c: c.into(),
        })
    }

    /// `dst = fma(a, b, c)` (float).
    pub fn ffma(
        &mut self,
        d: impl Into<Reg>,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
        c: impl Into<Operand>,
    ) -> &mut Self {
        self.push(Instr::Ter {
            op: TerOp::FFma,
            dst: d.into(),
            a: a.into(),
            b: b.into(),
            c: c.into(),
        })
    }

    // ---- predicates / select ----

    /// Integer comparison into predicate `pd`.
    pub fn isetp(
        &mut self,
        op: CmpOp,
        pd: PReg,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.push(Instr::SetP {
            op,
            float: false,
            pd,
            a: a.into(),
            b: b.into(),
        })
    }

    /// Float comparison into predicate `pd`.
    pub fn fsetp(
        &mut self,
        op: CmpOp,
        pd: PReg,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.push(Instr::SetP {
            op,
            float: true,
            pd,
            a: a.into(),
            b: b.into(),
        })
    }

    /// `pd = (u32) a < (u32) b` — the ubiquitous bounds check.
    pub fn isetp_lt_u(
        &mut self,
        pd: PReg,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.isetp(CmpOp::ULt, pd, a, b)
    }

    /// `dst = p ? a : b`.
    pub fn sel(
        &mut self,
        p: PReg,
        d: impl Into<Reg>,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.push(Instr::Sel {
            p,
            dst: d.into(),
            a: a.into(),
            b: b.into(),
        })
    }

    // ---- memory ----

    /// `dst = space[addr]`.
    pub fn ld(
        &mut self,
        space: MemSpace,
        dst: impl Into<Reg>,
        addr: impl Into<Operand>,
    ) -> &mut Self {
        self.push(Instr::Ld {
            space,
            dst: dst.into(),
            addr: addr.into(),
            offset: 0,
        })
    }

    /// `dst = space[addr + offset]`.
    pub fn ld_off(
        &mut self,
        space: MemSpace,
        dst: impl Into<Reg>,
        addr: impl Into<Operand>,
        offset: i32,
    ) -> &mut Self {
        self.push(Instr::Ld {
            space,
            dst: dst.into(),
            addr: addr.into(),
            offset,
        })
    }

    /// `space[addr] = src`.
    pub fn st(
        &mut self,
        space: MemSpace,
        addr: impl Into<Operand>,
        src: impl Into<Operand>,
    ) -> &mut Self {
        self.push(Instr::St {
            space,
            addr: addr.into(),
            offset: 0,
            src: src.into(),
        })
    }

    /// `space[addr + offset] = src`.
    pub fn st_off(
        &mut self,
        space: MemSpace,
        addr: impl Into<Operand>,
        offset: i32,
        src: impl Into<Operand>,
    ) -> &mut Self {
        self.push(Instr::St {
            space,
            addr: addr.into(),
            offset,
            src: src.into(),
        })
    }

    /// Atomic `op` on `space[addr]`, old value into `dst`.
    pub fn atom(
        &mut self,
        space: MemSpace,
        op: AtomOp,
        dst: impl Into<Reg>,
        addr: impl Into<Operand>,
        src: impl Into<Operand>,
    ) -> &mut Self {
        self.push(Instr::Atom {
            space,
            op,
            dst: dst.into(),
            addr: addr.into(),
            offset: 0,
            src: src.into(),
        })
    }

    /// Block-wide barrier.
    pub fn bar(&mut self) -> &mut Self {
        self.push(Instr::Bar)
    }

    // ---- control flow ----

    /// Opens an `if` region for lanes where `p` holds.
    pub fn if_begin(&mut self, p: PReg) -> &mut Self {
        self.push(Instr::IfBegin { p, negate: false })
    }

    /// Opens an `if` region for lanes where `p` does **not** hold.
    pub fn if_begin_not(&mut self, p: PReg) -> &mut Self {
        self.push(Instr::IfBegin { p, negate: true })
    }

    /// Switches to the complementary lane set of the open `if`.
    pub fn else_(&mut self) -> &mut Self {
        self.push(Instr::Else)
    }

    /// Closes the open `if` region.
    pub fn if_end(&mut self) -> &mut Self {
        self.push(Instr::IfEnd)
    }

    /// Opens a loop region.
    pub fn loop_begin(&mut self) -> &mut Self {
        self.push(Instr::LoopBegin)
    }

    /// Lanes where `p` holds leave the loop.
    pub fn brk(&mut self, p: PReg) -> &mut Self {
        self.push(Instr::Break { p, negate: false })
    }

    /// Lanes where `p` does **not** hold leave the loop.
    pub fn brk_not(&mut self, p: PReg) -> &mut Self {
        self.push(Instr::Break { p, negate: true })
    }

    /// Closes the open loop region.
    pub fn loop_end(&mut self) -> &mut Self {
        self.push(Instr::LoopEnd)
    }

    /// Terminates the thread.
    pub fn exit(&mut self) -> &mut Self {
        self.push(Instr::Exit)
    }

    /// Emits a no-op.
    pub fn nop(&mut self) -> &mut Self {
        self.push(Instr::Nop)
    }

    // ---- idioms ----

    /// `dst = %ctaid.x * %ntid.x + %tid.x` — the global 1-D thread id.
    pub fn global_tid_x(&mut self, dst: impl Into<Reg>) -> &mut Self {
        let dst = dst.into();
        self.push(Instr::Ter {
            op: TerOp::IMad,
            dst,
            a: Operand::Special(Special::CtaIdX),
            b: Operand::Special(Special::NTidX),
            c: Operand::Special(Special::TidX),
        })
    }

    /// `dst = %ctaid.y * %ntid.y + %tid.y` — the global y thread id.
    pub fn global_tid_y(&mut self, dst: impl Into<Reg>) -> &mut Self {
        let dst = dst.into();
        self.push(Instr::Ter {
            op: TerOp::IMad,
            dst,
            a: Operand::Special(Special::CtaIdY),
            b: Operand::Special(Special::NTidY),
            c: Operand::Special(Special::TidY),
        })
    }

    /// Byte address of word `index` in the buffer whose base (byte) address
    /// is in `base`: `dst = base + index * 4`.
    pub fn word_addr(
        &mut self,
        dst: impl Into<Reg>,
        base: impl Into<Operand>,
        index: impl Into<Operand>,
    ) -> &mut Self {
        self.push(Instr::Ter {
            op: TerOp::IMad,
            dst: dst.into(),
            a: index.into(),
            b: Operand::Imm(4),
            c: base.into(),
        })
    }

    /// Finalizes the kernel, running full validation.
    ///
    /// # Errors
    ///
    /// Returns an [`IsaError`] if the body is empty, a structured control
    /// region is malformed, a register is out of its declared range, a
    /// scalar instruction reads a non-uniform source, or a resource exceeds
    /// its ISA limit.
    pub fn build(&self) -> Result<Kernel, IsaError> {
        if self.body.is_empty() {
            return Err(IsaError::EmptyKernel);
        }
        if self.next_vreg > MAX_VREGS {
            return Err(IsaError::ResourceLimit {
                what: "vector registers",
                requested: self.next_vreg as u64,
                limit: MAX_VREGS as u64,
            });
        }
        if self.next_sreg > MAX_SREGS {
            return Err(IsaError::ResourceLimit {
                what: "scalar registers",
                requested: self.next_sreg as u64,
                limit: MAX_SREGS as u64,
            });
        }
        if self.next_preg > MAX_PREGS {
            return Err(IsaError::ResourceLimit {
                what: "predicate registers",
                requested: self.next_preg as u64,
                limit: MAX_PREGS as u64,
            });
        }
        if self.shared_bytes > MAX_SHARED_BYTES {
            return Err(IsaError::ResourceLimit {
                what: "shared memory",
                requested: self.shared_bytes as u64,
                limit: MAX_SHARED_BYTES as u64,
            });
        }
        let control = ControlMap::build(&self.body)?;
        self.validate_registers()?;
        self.validate_scalar_uniformity()?;
        Ok(Kernel {
            name: self.name.clone(),
            body: self.body.clone(),
            num_vregs: self.next_vreg,
            num_sregs: self.next_sreg,
            num_pregs: self.next_preg,
            num_params: self.num_params,
            shared_bytes: self.shared_bytes,
            control,
        })
    }

    fn check_reg(&self, index: usize, r: Reg) -> Result<(), IsaError> {
        let ok = match r {
            Reg::V(VReg(i)) => i < self.next_vreg,
            Reg::S(SReg(i)) => i < self.next_sreg,
        };
        if ok {
            Ok(())
        } else {
            let declared = match r {
                Reg::V(_) => self.next_vreg as u32,
                Reg::S(_) => self.next_sreg as u32,
            };
            Err(IsaError::RegisterOutOfRange {
                index,
                reg: r.to_string(),
                declared,
            })
        }
    }

    fn check_preg(&self, index: usize, p: PReg) -> Result<(), IsaError> {
        if p.0 < self.next_preg {
            Ok(())
        } else {
            Err(IsaError::RegisterOutOfRange {
                index,
                reg: p.to_string(),
                declared: self.next_preg as u32,
            })
        }
    }

    fn validate_registers(&self) -> Result<(), IsaError> {
        for (i, ins) in self.body.iter().enumerate() {
            if let Some(d) = ins.dst_reg() {
                self.check_reg(i, d)?;
            }
            for op in ins.src_operands() {
                if let Some(r) = op.reg() {
                    self.check_reg(i, r)?;
                }
            }
            if let Some(p) = ins.src_pred() {
                self.check_preg(i, p)?;
            }
            if let Some(p) = ins.dst_pred() {
                self.check_preg(i, p)?;
            }
        }
        Ok(())
    }

    fn validate_scalar_uniformity(&self) -> Result<(), IsaError> {
        for (i, ins) in self.body.iter().enumerate() {
            if !ins.is_scalar() {
                continue;
            }
            // Sel and Atom read per-lane state; they may not target scalars.
            if matches!(ins, Instr::Sel { .. } | Instr::Atom { .. }) {
                return Err(IsaError::NonUniformScalarSource {
                    index: i,
                    operand: "per-lane predicate/atomic".into(),
                });
            }
            for op in ins.src_operands() {
                if !op.is_uniform() {
                    return Err(IsaError::NonUniformScalarSource {
                        index: i,
                        operand: op.to_string(),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_introspect() {
        let mut b = KernelBuilder::new("k", 2);
        let s = b.sreg();
        let v = b.vreg();
        let p = b.preg();
        b.iadd(s, b.param(0), b.param(1));
        b.mov(v, s);
        b.isetp_lt_u(p, v, 10u32);
        b.exit();
        let k = b.build().unwrap();
        assert_eq!(k.num_sregs(), 3); // 2 params + 1 allocated
        assert_eq!(k.num_vregs(), 1);
        assert_eq!(k.num_pregs(), 1);
        assert_eq!(k.len(), 4);
        assert!(!k.is_empty());
    }

    #[test]
    fn empty_kernel_rejected() {
        assert_eq!(
            KernelBuilder::new("e", 0).build(),
            Err(IsaError::EmptyKernel)
        );
    }

    #[test]
    fn out_of_range_register_rejected() {
        let mut b = KernelBuilder::new("k", 0);
        b.mov(VReg(5), Operand::Imm(0)); // v5 never allocated
        let err = b.build().unwrap_err();
        assert!(matches!(err, IsaError::RegisterOutOfRange { .. }));
    }

    #[test]
    fn out_of_range_predicate_rejected() {
        let mut b = KernelBuilder::new("k", 0);
        let v = b.vreg();
        b.isetp(CmpOp::Eq, PReg(0), v, 0u32); // p0 never allocated
        assert!(matches!(
            b.build().unwrap_err(),
            IsaError::RegisterOutOfRange { .. }
        ));
    }

    #[test]
    fn scalar_reading_vector_rejected() {
        let mut b = KernelBuilder::new("k", 0);
        let s = b.sreg();
        let v = b.vreg();
        b.mov(v, 0u32);
        b.iadd(s, v, 1u32);
        let err = b.build().unwrap_err();
        assert!(matches!(
            err,
            IsaError::NonUniformScalarSource { index: 1, .. }
        ));
    }

    #[test]
    fn scalar_reading_tid_rejected() {
        let mut b = KernelBuilder::new("k", 0);
        let s = b.sreg();
        b.mov(s, Special::TidX);
        assert!(matches!(
            b.build().unwrap_err(),
            IsaError::NonUniformScalarSource { .. }
        ));
    }

    #[test]
    fn scalar_reading_ctaid_allowed() {
        let mut b = KernelBuilder::new("k", 0);
        let s = b.sreg();
        b.mov(s, Special::CtaIdX);
        b.exit();
        assert!(b.build().is_ok());
    }

    #[test]
    fn scalar_sel_rejected() {
        let mut b = KernelBuilder::new("k", 0);
        let s = b.sreg();
        let p = b.preg();
        let v = b.vreg();
        b.isetp(CmpOp::Eq, p, v, 0u32);
        b.sel(p, s, 0u32, 1u32);
        assert!(matches!(
            b.build().unwrap_err(),
            IsaError::NonUniformScalarSource { .. }
        ));
    }

    #[test]
    fn vreg_limit_enforced() {
        let mut b = KernelBuilder::new("k", 0);
        b.vregs(MAX_VREGS + 1);
        b.exit();
        assert!(matches!(
            b.build().unwrap_err(),
            IsaError::ResourceLimit {
                what: "vector registers",
                ..
            }
        ));
    }

    #[test]
    fn shared_offsets_accumulate() {
        let mut b = KernelBuilder::new("k", 0);
        let a = b.shared(64);
        let c = b.shared(128);
        assert_eq!(a, 0);
        assert_eq!(c, 64);
        b.exit();
        assert_eq!(b.build().unwrap().shared_bytes(), 192);
    }

    #[test]
    fn params_occupy_low_sregs() {
        let mut b = KernelBuilder::new("k", 3);
        assert_eq!(b.param(2), SReg(2));
        assert_eq!(b.sreg(), SReg(3));
    }

    #[test]
    #[should_panic(expected = "parameter 1 not declared")]
    fn param_out_of_range_panics() {
        let b = KernelBuilder::new("k", 1);
        let _ = b.param(1);
    }

    #[test]
    fn disassembly_is_indented_and_complete() {
        let mut b = KernelBuilder::new("dis", 0);
        let p = b.preg();
        let v = b.vreg();
        b.isetp(CmpOp::Eq, p, v, 0u32);
        b.if_begin(p);
        b.mov(v, 1u32);
        b.else_();
        b.mov(v, 2u32);
        b.if_end();
        b.exit();
        let k = b.build().unwrap();
        let text = k.disassemble();
        assert!(text.contains(".kernel dis"));
        assert_eq!(text.lines().count(), 1 + k.len());
        assert!(text.contains("if.begin p0"));
        assert_eq!(format!("{k}"), text);
    }

    #[test]
    fn control_map_is_built() {
        let mut b = KernelBuilder::new("cm", 0);
        let p = b.preg();
        let v = b.vreg();
        b.loop_begin();
        b.isetp(CmpOp::UGe, p, v, 4u32);
        b.brk(p);
        b.iadd(v, v, 1u32);
        b.loop_end();
        b.exit();
        let k = b.build().unwrap();
        assert_eq!(k.control().num_loops(), 1);
        assert_eq!(k.control().loop_info(0).unwrap().end_idx, 4);
    }
}
