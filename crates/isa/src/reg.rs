//! Register classes and operands of the MASS ISA.

use std::fmt;

/// A per-lane 32-bit vector register.
///
/// Every thread (lane) of a warp/wavefront owns a private instance. Vector
/// registers are the primary fault-injection target of the reproduced study
/// (the "vector register file" of Fig. 1).
///
/// # Example
/// ```
/// use simt_isa::VReg;
/// assert_eq!(VReg(3).to_string(), "v3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VReg(pub u16);

/// A per-warp 32-bit scalar register.
///
/// On architectures with a scalar unit (AMD Southern Islands) a scalar
/// register physically exists once per wavefront in the scalar register
/// file. On NVIDIA-style architectures the lowering pass
/// ([`crate::lower::lower`]) rewrites scalar registers onto per-thread
/// vector registers, mirroring how uniform values occupy SASS registers.
///
/// # Example
/// ```
/// use simt_isa::SReg;
/// assert_eq!(SReg(0).to_string(), "s0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SReg(pub u16);

/// A per-lane 1-bit predicate register.
///
/// Predicates steer structured control flow and `Sel`; they are held in a
/// dedicated structure that is *not* a fault-injection target (matching the
/// paper, which injects only the vector register file and local memory).
///
/// # Example
/// ```
/// use simt_isa::PReg;
/// assert_eq!(PReg(1).to_string(), "p1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PReg(pub u8);

/// Any general-purpose register (vector or scalar).
///
/// # Example
/// ```
/// use simt_isa::{Reg, VReg, SReg};
/// let r: Reg = VReg(2).into();
/// assert!(r.is_vector());
/// let s: Reg = SReg(1).into();
/// assert!(!s.is_vector());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reg {
    /// A per-lane vector register.
    V(VReg),
    /// A per-warp scalar register.
    S(SReg),
}

impl Reg {
    /// Returns `true` if this is a vector (per-lane) register.
    ///
    /// # Example
    /// ```
    /// use simt_isa::{Reg, VReg};
    /// assert!(Reg::V(VReg(0)).is_vector());
    /// ```
    pub fn is_vector(self) -> bool {
        matches!(self, Reg::V(_))
    }

    /// Returns `true` if this is a scalar (per-warp) register.
    ///
    /// # Example
    /// ```
    /// use simt_isa::{Reg, SReg};
    /// assert!(Reg::S(SReg(0)).is_scalar());
    /// ```
    pub fn is_scalar(self) -> bool {
        matches!(self, Reg::S(_))
    }
}

impl From<VReg> for Reg {
    fn from(r: VReg) -> Self {
        Reg::V(r)
    }
}

impl From<SReg> for Reg {
    fn from(r: SReg) -> Self {
        Reg::S(r)
    }
}

/// Special read-only values produced by the hardware.
///
/// `TidX`/`TidY` are per-lane; the rest are uniform across a warp (and are
/// therefore legal sources for scalar instructions).
///
/// # Example
/// ```
/// use simt_isa::Special;
/// assert!(Special::TidX.is_per_lane());
/// assert!(!Special::CtaIdX.is_per_lane());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Special {
    /// Thread index within the block, x dimension.
    TidX,
    /// Thread index within the block, y dimension.
    TidY,
    /// Block index within the grid, x dimension.
    CtaIdX,
    /// Block index within the grid, y dimension.
    CtaIdY,
    /// Block dimension, x.
    NTidX,
    /// Block dimension, y.
    NTidY,
    /// Grid dimension, x.
    NCtaIdX,
    /// Grid dimension, y.
    NCtaIdY,
    /// Lane index within the warp.
    LaneId,
    /// Warp index within the block.
    WarpId,
}

impl Special {
    /// Whether the value differs between lanes of a warp.
    ///
    /// Per-lane specials may not feed scalar instructions; the
    /// [`crate::KernelBuilder`] validator enforces this.
    pub fn is_per_lane(self) -> bool {
        matches!(self, Special::TidX | Special::TidY | Special::LaneId)
    }
}

/// A source operand: a register, an immediate 32-bit pattern, or a special
/// hardware value.
///
/// Floating-point immediates are carried as their IEEE-754 bit pattern; use
/// [`Operand::from_f32`].
///
/// # Example
/// ```
/// use simt_isa::Operand;
/// let half = Operand::from_f32(0.5);
/// assert_eq!(half, Operand::Imm(0.5f32.to_bits()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A general-purpose register source.
    Reg(Reg),
    /// A 32-bit immediate (bit pattern).
    Imm(u32),
    /// A hardware special value.
    Special(Special),
}

impl Operand {
    /// Builds an immediate operand from an `f32`, preserving the bit pattern.
    ///
    /// # Example
    /// ```
    /// use simt_isa::Operand;
    /// assert_eq!(Operand::from_f32(1.0), Operand::Imm(0x3f80_0000));
    /// ```
    pub fn from_f32(v: f32) -> Self {
        Operand::Imm(v.to_bits())
    }

    /// Builds an immediate operand from an `i32`, preserving two's complement.
    ///
    /// # Example
    /// ```
    /// use simt_isa::Operand;
    /// assert_eq!(Operand::from_i32(-1), Operand::Imm(u32::MAX));
    /// ```
    pub fn from_i32(v: i32) -> Self {
        Operand::Imm(v as u32)
    }

    /// The register read by this operand, if any.
    pub fn reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            _ => None,
        }
    }

    /// Whether this operand is uniform across all lanes of a warp.
    ///
    /// Immediates and scalar registers are always uniform; vector registers
    /// never are (statically); specials are uniform unless per-lane.
    pub fn is_uniform(self) -> bool {
        match self {
            Operand::Reg(Reg::V(_)) => false,
            Operand::Reg(Reg::S(_)) | Operand::Imm(_) => true,
            Operand::Special(s) => !s.is_per_lane(),
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<VReg> for Operand {
    fn from(r: VReg) -> Self {
        Operand::Reg(Reg::V(r))
    }
}

impl From<SReg> for Operand {
    fn from(r: SReg) -> Self {
        Operand::Reg(Reg::S(r))
    }
}

impl From<u32> for Operand {
    fn from(v: u32) -> Self {
        Operand::Imm(v)
    }
}

impl From<Special> for Operand {
    fn from(s: Special) -> Self {
        Operand::Special(s)
    }
}

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for SReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for PReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reg::V(r) => r.fmt(f),
            Reg::S(r) => r.fmt(f),
        }
    }
}

impl fmt::Display for Special {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Special::TidX => "%tid.x",
            Special::TidY => "%tid.y",
            Special::CtaIdX => "%ctaid.x",
            Special::CtaIdY => "%ctaid.y",
            Special::NTidX => "%ntid.x",
            Special::NTidY => "%ntid.y",
            Special::NCtaIdX => "%nctaid.x",
            Special::NCtaIdY => "%nctaid.y",
            Special::LaneId => "%laneid",
            Special::WarpId => "%warpid",
        };
        f.write_str(s)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => r.fmt(f),
            Operand::Imm(v) => write!(f, "0x{v:x}"),
            Operand::Special(s) => s.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(VReg(12).to_string(), "v12");
        assert_eq!(SReg(3).to_string(), "s3");
        assert_eq!(PReg(0).to_string(), "p0");
        assert_eq!(Reg::V(VReg(1)).to_string(), "v1");
        assert_eq!(Operand::Imm(255).to_string(), "0xff");
        assert_eq!(Operand::Special(Special::TidX).to_string(), "%tid.x");
    }

    #[test]
    fn uniformity() {
        assert!(!Operand::from(VReg(0)).is_uniform());
        assert!(Operand::from(SReg(0)).is_uniform());
        assert!(Operand::Imm(7).is_uniform());
        assert!(Operand::Special(Special::CtaIdX).is_uniform());
        assert!(!Operand::Special(Special::TidX).is_uniform());
        assert!(!Operand::Special(Special::LaneId).is_uniform());
    }

    #[test]
    fn conversions() {
        let r: Reg = VReg(5).into();
        assert_eq!(r, Reg::V(VReg(5)));
        let o: Operand = SReg(2).into();
        assert_eq!(o, Operand::Reg(Reg::S(SReg(2))));
        assert_eq!(Operand::from(7u32), Operand::Imm(7));
        assert_eq!(Operand::from_i32(-2), Operand::Imm(0xffff_fffe));
    }

    #[test]
    fn reg_class_predicates() {
        assert!(Reg::V(VReg(0)).is_vector());
        assert!(!Reg::V(VReg(0)).is_scalar());
        assert!(Reg::S(SReg(0)).is_scalar());
        assert!(!Reg::S(SReg(0)).is_vector());
    }

    #[test]
    fn float_imm_roundtrip() {
        if let Operand::Imm(bits) = Operand::from_f32(3.25) {
            assert_eq!(f32::from_bits(bits), 3.25);
        } else {
            panic!("expected immediate");
        }
    }
}
