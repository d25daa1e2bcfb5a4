//! Pre-resolved structured-control-flow map.
//!
//! The simulator's SIMT reconvergence stack needs, for every structured
//! control instruction, the index of its partners (the `Else`/`IfEnd` of an
//! `IfBegin`, the `LoopEnd` of a `LoopBegin`, …). [`ControlMap::build`]
//! resolves these once at kernel-build time so execution never scans the
//! instruction stream.

use crate::error::IsaError;
use crate::instr::Instr;

/// Resolved partner indices for one `IfBegin`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IfInfo {
    /// Index of the matching `Else`, if present.
    pub else_idx: Option<usize>,
    /// Index of the matching `IfEnd`.
    pub end_idx: usize,
}

/// Resolved partner indices for one `LoopBegin`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopInfo {
    /// Index of the matching `LoopEnd`.
    pub end_idx: usize,
}

/// Structured-control-flow map of a kernel body.
///
/// Entries are keyed by the instruction index of the *opening* instruction
/// (`IfBegin`, `LoopBegin`); closers and `Break`s carry back-references.
///
/// # Example
/// ```
/// use simt_isa::{ControlMap, Instr, PReg};
/// let body = vec![
///     Instr::IfBegin { p: PReg(0), negate: false },
///     Instr::Nop,
///     Instr::IfEnd,
///     Instr::Exit,
/// ];
/// let map = ControlMap::build(&body)?;
/// assert_eq!(map.if_info(0).unwrap().end_idx, 2);
/// # Ok::<(), simt_isa::IsaError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ControlMap {
    ifs: Vec<(usize, IfInfo)>,
    loops: Vec<(usize, LoopInfo)>,
    /// For every `Break` index: the index of the enclosing `LoopBegin`.
    breaks: Vec<(usize, usize)>,
    /// For every `Else` index: the owning `IfBegin` index.
    elses: Vec<(usize, usize)>,
    /// For every `IfEnd` index: the owning `IfBegin` index.
    if_ends: Vec<(usize, usize)>,
    /// For every `LoopEnd` index: the owning `LoopBegin` index.
    loop_ends: Vec<(usize, usize)>,
}

#[derive(Debug)]
enum Frame {
    If {
        begin: usize,
        else_idx: Option<usize>,
    },
    Loop {
        begin: usize,
    },
}

impl ControlMap {
    /// Builds the map, validating nesting as it goes.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::UnmatchedControl`] for closers without openers or
    /// `Else` outside an `If`, [`IsaError::BreakOutsideLoop`] for stray
    /// `Break`s, and [`IsaError::UnclosedControl`] when the body ends inside
    /// an open construct.
    pub fn build(body: &[Instr]) -> Result<Self, IsaError> {
        let mut map = ControlMap::default();
        let mut stack: Vec<Frame> = Vec::new();
        for (i, ins) in body.iter().enumerate() {
            match ins {
                Instr::IfBegin { .. } => stack.push(Frame::If {
                    begin: i,
                    else_idx: None,
                }),
                Instr::Else => match stack.last_mut() {
                    Some(Frame::If { begin, else_idx }) if else_idx.is_none() => {
                        *else_idx = Some(i);
                        let b = *begin;
                        map.elses.push((i, b));
                    }
                    _ => {
                        return Err(IsaError::UnmatchedControl {
                            index: i,
                            what: "else without open if",
                        })
                    }
                },
                Instr::IfEnd => match stack.pop() {
                    Some(Frame::If { begin, else_idx }) => {
                        map.ifs.push((
                            begin,
                            IfInfo {
                                else_idx,
                                end_idx: i,
                            },
                        ));
                        map.if_ends.push((i, begin));
                    }
                    _ => {
                        return Err(IsaError::UnmatchedControl {
                            index: i,
                            what: "if.end without open if",
                        })
                    }
                },
                Instr::LoopBegin => stack.push(Frame::Loop { begin: i }),
                Instr::Break { .. } => {
                    let owner = stack.iter().rev().find_map(|f| match f {
                        Frame::Loop { begin } => Some(*begin),
                        Frame::If { .. } => None,
                    });
                    match owner {
                        Some(b) => map.breaks.push((i, b)),
                        None => return Err(IsaError::BreakOutsideLoop { index: i }),
                    }
                }
                Instr::LoopEnd => match stack.pop() {
                    Some(Frame::Loop { begin }) => {
                        map.loops.push((begin, LoopInfo { end_idx: i }));
                        map.loop_ends.push((i, begin));
                    }
                    _ => {
                        return Err(IsaError::UnmatchedControl {
                            index: i,
                            what: "loop.end without open loop",
                        })
                    }
                },
                _ => {}
            }
        }
        if let Some(frame) = stack.pop() {
            let (index, what) = match frame {
                Frame::If { begin, .. } => (begin, "if.begin"),
                Frame::Loop { begin } => (begin, "loop.begin"),
            };
            return Err(IsaError::UnclosedControl { index, what });
        }
        map.ifs.sort_unstable_by_key(|(k, _)| *k);
        map.loops.sort_unstable_by_key(|(k, _)| *k);
        map.breaks.sort_unstable_by_key(|(k, _)| *k);
        map.elses.sort_unstable_by_key(|(k, _)| *k);
        map.if_ends.sort_unstable_by_key(|(k, _)| *k);
        map.loop_ends.sort_unstable_by_key(|(k, _)| *k);
        Ok(map)
    }

    /// Partner indices for the `IfBegin` at `idx`.
    pub fn if_info(&self, idx: usize) -> Option<IfInfo> {
        self.ifs
            .binary_search_by_key(&idx, |(k, _)| *k)
            .ok()
            .map(|i| self.ifs[i].1)
    }

    /// Partner indices for the `LoopBegin` at `idx`.
    pub fn loop_info(&self, idx: usize) -> Option<LoopInfo> {
        self.loops
            .binary_search_by_key(&idx, |(k, _)| *k)
            .ok()
            .map(|i| self.loops[i].1)
    }

    /// The enclosing `LoopBegin` index for the `Break` at `idx`.
    pub fn break_owner(&self, idx: usize) -> Option<usize> {
        self.breaks
            .binary_search_by_key(&idx, |(k, _)| *k)
            .ok()
            .map(|i| self.breaks[i].1)
    }

    /// The owning `IfBegin` index for the `Else` at `idx`.
    pub fn else_owner(&self, idx: usize) -> Option<usize> {
        self.elses
            .binary_search_by_key(&idx, |(k, _)| *k)
            .ok()
            .map(|i| self.elses[i].1)
    }

    /// The owning `IfBegin` index for the `IfEnd` at `idx`.
    pub fn if_end_owner(&self, idx: usize) -> Option<usize> {
        self.if_ends
            .binary_search_by_key(&idx, |(k, _)| *k)
            .ok()
            .map(|i| self.if_ends[i].1)
    }

    /// The owning `LoopBegin` index for the `LoopEnd` at `idx`.
    pub fn loop_end_owner(&self, idx: usize) -> Option<usize> {
        self.loop_ends
            .binary_search_by_key(&idx, |(k, _)| *k)
            .ok()
            .map(|i| self.loop_ends[i].1)
    }

    /// Number of `If` regions in the kernel.
    pub fn num_ifs(&self) -> usize {
        self.ifs.len()
    }

    /// Number of loop regions in the kernel.
    pub fn num_loops(&self) -> usize {
        self.loops.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::PReg;

    fn p0() -> Instr {
        Instr::IfBegin {
            p: PReg(0),
            negate: false,
        }
    }

    #[test]
    fn simple_if_else() {
        let body = vec![p0(), Instr::Nop, Instr::Else, Instr::Nop, Instr::IfEnd];
        let m = ControlMap::build(&body).unwrap();
        let info = m.if_info(0).unwrap();
        assert_eq!(info.else_idx, Some(2));
        assert_eq!(info.end_idx, 4);
        assert_eq!(m.else_owner(2), Some(0));
        assert_eq!(m.if_end_owner(4), Some(0));
        assert_eq!(m.num_ifs(), 1);
    }

    #[test]
    fn nested_regions() {
        let body = vec![
            Instr::LoopBegin, // 0
            p0(),             // 1
            Instr::Break {
                p: PReg(1),
                negate: false,
            }, // 2
            Instr::IfEnd,     // 3
            p0(),             // 4
            Instr::IfEnd,     // 5
            Instr::LoopEnd,   // 6
        ];
        let m = ControlMap::build(&body).unwrap();
        assert_eq!(m.loop_info(0).unwrap().end_idx, 6);
        assert_eq!(m.break_owner(2), Some(0));
        assert_eq!(m.if_info(1).unwrap().end_idx, 3);
        assert_eq!(m.if_info(4).unwrap().end_idx, 5);
        assert_eq!(m.loop_end_owner(6), Some(0));
        assert_eq!(m.num_loops(), 1);
        assert_eq!(m.num_ifs(), 2);
    }

    #[test]
    fn break_through_if_finds_loop() {
        let body = vec![
            Instr::LoopBegin,
            p0(),
            p0(),
            Instr::Break {
                p: PReg(2),
                negate: true,
            },
            Instr::IfEnd,
            Instr::IfEnd,
            Instr::LoopEnd,
        ];
        let m = ControlMap::build(&body).unwrap();
        assert_eq!(m.break_owner(3), Some(0));
    }

    #[test]
    fn rejects_unmatched_else() {
        let err = ControlMap::build(&[Instr::Else]).unwrap_err();
        assert!(matches!(err, IsaError::UnmatchedControl { index: 0, .. }));
    }

    #[test]
    fn rejects_double_else() {
        let body = vec![p0(), Instr::Else, Instr::Else, Instr::IfEnd];
        assert!(ControlMap::build(&body).is_err());
    }

    #[test]
    fn rejects_crossed_regions() {
        // loop.begin; if.begin; loop.end  — closes the if frame instead.
        let body = vec![Instr::LoopBegin, p0(), Instr::LoopEnd, Instr::IfEnd];
        assert!(ControlMap::build(&body).is_err());
    }

    #[test]
    fn rejects_unclosed() {
        let err = ControlMap::build(&[Instr::LoopBegin, Instr::Nop]).unwrap_err();
        assert!(matches!(err, IsaError::UnclosedControl { index: 0, .. }));
    }

    #[test]
    fn rejects_break_outside_loop() {
        let body = vec![
            p0(),
            Instr::Break {
                p: PReg(0),
                negate: false,
            },
            Instr::IfEnd,
        ];
        let err = ControlMap::build(&body).unwrap_err();
        assert!(matches!(err, IsaError::BreakOutsideLoop { index: 1 }));
    }

    #[test]
    fn lookup_missing_returns_none() {
        let m = ControlMap::build(&[Instr::Nop, Instr::Exit]).unwrap();
        assert_eq!(m.if_info(0), None);
        assert_eq!(m.loop_info(0), None);
        assert_eq!(m.break_owner(1), None);
    }
}
