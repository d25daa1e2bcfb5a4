//! Per-architecture lowering of MASS kernels.
//!
//! The reproduced study stresses that a fair cross-vendor comparison must
//! inject faults into the registers the *real* binary uses (SASS for
//! NVIDIA, Southern Islands ISA for AMD), not a virtual IR. MASS kernels
//! are authored once; [`lower`] then specializes them:
//!
//! * **Scalar-unit architectures** (AMD Southern Islands): scalar
//!   instructions execute once per wavefront against a physical scalar
//!   register file; vector registers hold only per-lane state.
//! * **Vector-only architectures** (NVIDIA G80/GT200/Fermi): every scalar
//!   register is rewritten onto a per-thread vector register appended after
//!   the kernel's own vector registers — exactly how uniform values occupy
//!   SASS registers, inflating the per-thread register footprint (and thus
//!   the fault-injection target surface).

use crate::cfg::ControlMap;
use crate::error::IsaError;
use crate::instr::Instr;
use crate::kernel::Kernel;
use crate::reg::{Operand, Reg, SReg, VReg};

/// Architecture capabilities that affect lowering.
///
/// # Example
/// ```
/// use simt_isa::ArchCaps;
/// let si = ArchCaps { has_scalar_unit: true, warp_size: 64 };
/// let fermi = ArchCaps { has_scalar_unit: false, warp_size: 32 };
/// assert_ne!(si, fermi);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArchCaps {
    /// Whether the architecture has a scalar register file and scalar
    /// execution unit (AMD Southern Islands: yes; NVIDIA families: no).
    pub has_scalar_unit: bool,
    /// Warp (NVIDIA) / wavefront (AMD) width in threads.
    pub warp_size: u32,
}

/// A kernel specialized for one architecture.
///
/// Obtained from [`lower`]; this is what the simulator executes and what
/// determines the per-thread register allocation (and therefore occupancy
/// and the fault-site space).
///
/// # Example
/// ```
/// use simt_isa::{KernelBuilder, ArchCaps, lower};
/// let mut b = KernelBuilder::new("k", 1);
/// let v = b.vreg();
/// b.mov(v, b.param(0));
/// b.exit();
/// let k = b.build()?;
/// let nv = lower(&k, ArchCaps { has_scalar_unit: false, warp_size: 32 })?;
/// let si = lower(&k, ArchCaps { has_scalar_unit: true, warp_size: 64 })?;
/// // On NVIDIA the parameter lives in a vector register per thread:
/// assert_eq!(nv.vregs_per_thread(), 2);
/// assert_eq!(nv.sregs_per_warp(), 0);
/// // On Southern Islands it stays in the scalar file:
/// assert_eq!(si.vregs_per_thread(), 1);
/// assert_eq!(si.sregs_per_warp(), 1);
/// # Ok::<(), simt_isa::IsaError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredKernel {
    name: String,
    body: Vec<Instr>,
    control: ControlMap,
    caps: ArchCaps,
    vregs_per_thread: u16,
    sregs_per_warp: u16,
    num_pregs: u8,
    num_params: u16,
    shared_bytes: u32,
    /// Registers (class-resolved) holding each parameter after lowering.
    param_regs: Vec<Reg>,
}

impl LoweredKernel {
    /// Kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The lowered instruction stream.
    pub fn body(&self) -> &[Instr] {
        &self.body
    }

    /// The structured-control-flow map (indices match [`Self::body`]).
    pub fn control(&self) -> &ControlMap {
        &self.control
    }

    /// The capabilities this kernel was lowered for.
    pub fn caps(&self) -> ArchCaps {
        self.caps
    }

    /// Vector registers allocated per thread.
    pub fn vregs_per_thread(&self) -> u16 {
        self.vregs_per_thread
    }

    /// Scalar registers allocated per warp (0 on vector-only archs).
    pub fn sregs_per_warp(&self) -> u16 {
        self.sregs_per_warp
    }

    /// Predicate registers per lane.
    pub fn num_pregs(&self) -> u8 {
        self.num_pregs
    }

    /// Number of 32-bit kernel parameters.
    pub fn num_params(&self) -> u16 {
        self.num_params
    }

    /// Static shared memory per block in bytes.
    pub fn shared_bytes(&self) -> u32 {
        self.shared_bytes
    }

    /// The register that receives parameter `i` at launch.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_params()`.
    pub fn param_reg(&self, i: u16) -> Reg {
        self.param_regs[i as usize]
    }
}

fn map_reg(r: Reg, to_vector: bool, vreg_base: u16) -> Reg {
    match r {
        Reg::S(SReg(i)) if to_vector => Reg::V(VReg(vreg_base + i)),
        other => other,
    }
}

fn map_operand(op: Operand, to_vector: bool, vreg_base: u16) -> Operand {
    match op {
        Operand::Reg(r) => Operand::Reg(map_reg(r, to_vector, vreg_base)),
        other => other,
    }
}

/// Lowers a validated kernel for an architecture.
///
/// On scalar-unit architectures this is the identity mapping. On
/// vector-only architectures every `SReg(i)` becomes
/// `VReg(num_vregs + i)` and scalar instructions become per-lane vector
/// instructions (each lane computes the same uniform value, as SASS does).
///
/// # Errors
///
/// Returns [`IsaError::ResourceLimit`] if the combined vector-register
/// demand exceeds [`crate::kernel::MAX_VREGS`] on a vector-only
/// architecture.
pub fn lower(kernel: &Kernel, caps: ArchCaps) -> Result<LoweredKernel, IsaError> {
    let to_vector = !caps.has_scalar_unit;
    let vreg_base = kernel.num_vregs();
    let (vregs_per_thread, sregs_per_warp) = if to_vector {
        let total = vreg_base as u32 + kernel.num_sregs() as u32;
        if total > crate::kernel::MAX_VREGS as u32 {
            return Err(IsaError::ResourceLimit {
                what: "vector registers after scalar folding",
                requested: total as u64,
                limit: crate::kernel::MAX_VREGS as u64,
            });
        }
        (total as u16, 0)
    } else {
        (vreg_base, kernel.num_sregs())
    };

    let body: Vec<Instr> = kernel
        .body()
        .iter()
        .map(|ins| match *ins {
            Instr::Un { op, dst, a } => Instr::Un {
                op,
                dst: map_reg(dst, to_vector, vreg_base),
                a: map_operand(a, to_vector, vreg_base),
            },
            Instr::Bin { op, dst, a, b } => Instr::Bin {
                op,
                dst: map_reg(dst, to_vector, vreg_base),
                a: map_operand(a, to_vector, vreg_base),
                b: map_operand(b, to_vector, vreg_base),
            },
            Instr::Ter { op, dst, a, b, c } => Instr::Ter {
                op,
                dst: map_reg(dst, to_vector, vreg_base),
                a: map_operand(a, to_vector, vreg_base),
                b: map_operand(b, to_vector, vreg_base),
                c: map_operand(c, to_vector, vreg_base),
            },
            Instr::SetP {
                op,
                float,
                pd,
                a,
                b,
            } => Instr::SetP {
                op,
                float,
                pd,
                a: map_operand(a, to_vector, vreg_base),
                b: map_operand(b, to_vector, vreg_base),
            },
            Instr::Sel { p, dst, a, b } => Instr::Sel {
                p,
                dst: map_reg(dst, to_vector, vreg_base),
                a: map_operand(a, to_vector, vreg_base),
                b: map_operand(b, to_vector, vreg_base),
            },
            Instr::Ld {
                space,
                dst,
                addr,
                offset,
            } => Instr::Ld {
                space,
                dst: map_reg(dst, to_vector, vreg_base),
                addr: map_operand(addr, to_vector, vreg_base),
                offset,
            },
            Instr::St {
                space,
                addr,
                offset,
                src,
            } => Instr::St {
                space,
                addr: map_operand(addr, to_vector, vreg_base),
                offset,
                src: map_operand(src, to_vector, vreg_base),
            },
            Instr::Atom {
                space,
                op,
                dst,
                addr,
                offset,
                src,
            } => Instr::Atom {
                space,
                op,
                dst: map_reg(dst, to_vector, vreg_base),
                addr: map_operand(addr, to_vector, vreg_base),
                offset,
                src: map_operand(src, to_vector, vreg_base),
            },
            other => other,
        })
        .collect();

    let param_regs = (0..kernel.num_params())
        .map(|i| map_reg(Reg::S(SReg(i)), to_vector, vreg_base))
        .collect();

    Ok(LoweredKernel {
        name: kernel.name().to_string(),
        control: kernel.control().clone(),
        caps,
        body,
        vregs_per_thread,
        sregs_per_warp,
        num_pregs: kernel.num_pregs(),
        num_params: kernel.num_params(),
        shared_bytes: kernel.shared_bytes(),
        param_regs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelBuilder;
    use crate::op::MemSpace;

    const NV: ArchCaps = ArchCaps {
        has_scalar_unit: false,
        warp_size: 32,
    };
    const SI: ArchCaps = ArchCaps {
        has_scalar_unit: true,
        warp_size: 64,
    };

    fn sample_kernel() -> Kernel {
        let mut b = KernelBuilder::new("sample", 2);
        let base = b.param(0);
        let n = b.param(1);
        let s = b.sreg();
        let gid = b.vreg();
        let addr = b.vreg();
        let p = b.preg();
        b.iadd(s, n, 1u32);
        b.global_tid_x(gid);
        b.isetp_lt_u(p, gid, s);
        b.if_begin(p);
        b.word_addr(addr, base, gid);
        b.st(MemSpace::Global, addr, gid);
        b.if_end();
        b.exit();
        b.build().unwrap()
    }

    #[test]
    fn identity_on_scalar_arch() {
        let k = sample_kernel();
        let l = lower(&k, SI).unwrap();
        assert_eq!(l.body(), k.body());
        assert_eq!(l.vregs_per_thread(), k.num_vregs());
        assert_eq!(l.sregs_per_warp(), k.num_sregs());
        assert_eq!(l.param_reg(0), Reg::S(SReg(0)));
        assert_eq!(l.name(), "sample");
        assert_eq!(l.caps(), SI);
    }

    #[test]
    fn scalar_folding_on_vector_arch() {
        let k = sample_kernel();
        let l = lower(&k, NV).unwrap();
        assert_eq!(l.sregs_per_warp(), 0);
        assert_eq!(
            l.vregs_per_thread(),
            k.num_vregs() + k.num_sregs(),
            "scalar registers fold into the vector file"
        );
        // s2 (the allocated sreg) became v{num_vregs + 2}.
        let folded = Reg::V(VReg(k.num_vregs() + 2));
        assert!(l.body().iter().any(|i| i.dst_reg() == Some(folded)));
        // No scalar registers remain anywhere.
        for ins in l.body() {
            if let Some(d) = ins.dst_reg() {
                assert!(d.is_vector());
            }
            for op in ins.src_operands() {
                if let Some(r) = op.reg() {
                    assert!(r.is_vector());
                }
            }
        }
        assert_eq!(l.param_reg(1), Reg::V(VReg(k.num_vregs() + 1)));
    }

    #[test]
    fn control_map_survives_lowering() {
        let k = sample_kernel();
        let l = lower(&k, NV).unwrap();
        assert_eq!(l.control(), k.control());
        assert_eq!(l.shared_bytes(), k.shared_bytes());
        assert_eq!(l.num_pregs(), k.num_pregs());
        assert_eq!(l.num_params(), 2);
    }

    #[test]
    fn folding_overflow_is_reported() {
        let mut b = KernelBuilder::new("big", 0);
        b.vregs(200);
        for _ in 0..80 {
            let s = b.sreg();
            b.mov(s, 0u32);
        }
        b.exit();
        let k = b.build().unwrap();
        assert!(lower(&k, SI).is_ok(), "fits with a scalar file");
        assert!(
            matches!(lower(&k, NV), Err(IsaError::ResourceLimit { .. })),
            "overflows when folded"
        );
    }
}
