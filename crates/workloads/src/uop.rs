//! The micro-operation format consumed by the MCD simulator.

use std::fmt;

/// Operation class of a micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Integer ALU operation (add, logic, shift, compare).
    IntAlu,
    /// Integer multiply/divide.
    IntMul,
    /// Floating-point add/sub/convert.
    FpAlu,
    /// Floating-point multiply.
    FpMul,
    /// Floating-point divide or square root.
    FpDiv,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch (executes on the integer core).
    Branch,
}

impl OpClass {
    /// Every op class (for exhaustive iteration in tests and stats).
    pub const ALL: [OpClass; 8] = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::FpAlu,
        OpClass::FpMul,
        OpClass::FpDiv,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
    ];

    /// The back-end clock domain that executes this class.
    pub fn domain(self) -> ExecDomain {
        match self {
            OpClass::IntAlu | OpClass::IntMul | OpClass::Branch => ExecDomain::Integer,
            OpClass::FpAlu | OpClass::FpMul | OpClass::FpDiv => ExecDomain::FloatingPoint,
            OpClass::Load | OpClass::Store => ExecDomain::LoadStore,
        }
    }

    /// Whether the op reads or writes memory.
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }

    /// Whether the op produces a register result other ops may consume.
    pub fn produces_value(self) -> bool {
        !matches!(self, OpClass::Store | OpClass::Branch)
    }

    /// Whether the op's result lives in the floating-point register space.
    pub fn is_fp(self) -> bool {
        matches!(self, OpClass::FpAlu | OpClass::FpMul | OpClass::FpDiv)
    }

    /// Position of this class in [`OpClass::ALL`] (the snapshot encoding).
    pub fn index(self) -> u8 {
        OpClass::ALL
            .iter()
            .position(|&c| c == self)
            .expect("every class is in ALL") as u8
    }

    /// Inverse of [`OpClass::index`], rejecting out-of-range bytes.
    pub fn from_index(i: u8) -> Option<OpClass> {
        OpClass::ALL.get(i as usize).copied()
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::IntAlu => "int-alu",
            OpClass::IntMul => "int-mul",
            OpClass::FpAlu => "fp-alu",
            OpClass::FpMul => "fp-mul",
            OpClass::FpDiv => "fp-div",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Branch => "branch",
        };
        f.write_str(s)
    }
}

/// The back-end execution domain of an op (the front end touches all ops).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecDomain {
    /// Integer issue queue + ALUs.
    Integer,
    /// Floating-point issue queue + ALUs.
    FloatingPoint,
    /// Load/store queue + memory hierarchy.
    LoadStore,
}

impl ExecDomain {
    /// All back-end domains.
    pub const ALL: [ExecDomain; 3] = [
        ExecDomain::Integer,
        ExecDomain::FloatingPoint,
        ExecDomain::LoadStore,
    ];
}

impl fmt::Display for ExecDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ExecDomain::Integer => "INT",
            ExecDomain::FloatingPoint => "FP",
            ExecDomain::LoadStore => "LS",
        };
        f.write_str(s)
    }
}

/// One micro-operation in program (fetch) order.
///
/// Data dependences are expressed as the sequence numbers of producer ops;
/// the simulator resolves them against its in-flight window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroOp {
    /// Position in the dynamic instruction stream (0-based, dense).
    pub seq: u64,
    /// Operation class.
    pub class: OpClass,
    /// Sequence number of the first source operand's producer, if any.
    pub src1: Option<u64>,
    /// Sequence number of the second source operand's producer, if any.
    pub src2: Option<u64>,
    /// Effective byte address for loads/stores.
    pub addr: Option<u64>,
    /// Static program counter (used by the branch predictor and I-cache).
    pub pc: u64,
    /// Actual branch outcome (meaningful for `OpClass::Branch` only).
    pub taken: bool,
}

impl MicroOp {
    /// Creates a non-memory, non-branch op with the given producers.
    pub fn compute(
        seq: u64,
        class: OpClass,
        pc: u64,
        src1: Option<u64>,
        src2: Option<u64>,
    ) -> Self {
        debug_assert!(!class.is_mem() && class != OpClass::Branch);
        MicroOp {
            seq,
            class,
            src1,
            src2,
            addr: None,
            pc,
            taken: false,
        }
    }

    /// Creates a load or store at `addr`.
    pub fn mem(seq: u64, class: OpClass, pc: u64, addr: u64, src1: Option<u64>) -> Self {
        debug_assert!(class.is_mem());
        MicroOp {
            seq,
            class,
            src1,
            src2: None,
            addr: Some(addr),
            pc,
            taken: false,
        }
    }

    /// Creates a conditional branch with the given actual outcome.
    pub fn branch(seq: u64, pc: u64, taken: bool, src1: Option<u64>) -> Self {
        MicroOp {
            seq,
            class: OpClass::Branch,
            src1,
            src2: None,
            addr: None,
            pc,
            taken,
        }
    }

    /// Iterator over this op's producer sequence numbers.
    #[inline]
    pub fn sources(&self) -> impl Iterator<Item = u64> + '_ {
        self.src1.into_iter().chain(self.src2)
    }

    /// Serializes the op for a state snapshot.
    pub fn save_state(&self, w: &mut mcd_snap::SnapWriter) {
        w.put_u64(self.seq);
        w.put_u8(self.class.index());
        w.put_opt_u64(self.src1);
        w.put_opt_u64(self.src2);
        w.put_opt_u64(self.addr);
        w.put_u64(self.pc);
        w.put_bool(self.taken);
    }

    /// Decodes an op written by [`MicroOp::save_state`].
    pub fn load_state(r: &mut mcd_snap::SnapReader<'_>) -> mcd_snap::SnapResult<MicroOp> {
        let seq = r.take_u64()?;
        let class_idx = r.take_u8()?;
        let class = OpClass::from_index(class_idx).ok_or_else(|| {
            mcd_snap::SnapError::Mismatch(format!("op class index {class_idx} out of range"))
        })?;
        Ok(MicroOp {
            seq,
            class,
            src1: r.take_opt_u64()?,
            src2: r.take_opt_u64()?,
            addr: r.take_opt_u64()?,
            pc: r.take_u64()?,
            taken: r.take_bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_map_to_domains() {
        assert_eq!(OpClass::IntAlu.domain(), ExecDomain::Integer);
        assert_eq!(OpClass::Branch.domain(), ExecDomain::Integer);
        assert_eq!(OpClass::FpDiv.domain(), ExecDomain::FloatingPoint);
        assert_eq!(OpClass::Load.domain(), ExecDomain::LoadStore);
        assert_eq!(OpClass::Store.domain(), ExecDomain::LoadStore);
    }

    #[test]
    fn memory_and_value_predicates() {
        assert!(OpClass::Load.is_mem());
        assert!(!OpClass::IntAlu.is_mem());
        assert!(OpClass::Load.produces_value());
        assert!(!OpClass::Store.produces_value());
        assert!(!OpClass::Branch.produces_value());
        assert!(OpClass::FpMul.is_fp());
        assert!(!OpClass::Load.is_fp());
    }

    #[test]
    fn sources_iterates_present_operands() {
        let op = MicroOp::compute(10, OpClass::IntAlu, 0x400, Some(7), Some(9));
        assert_eq!(op.sources().collect::<Vec<_>>(), vec![7, 9]);
        let op = MicroOp::branch(11, 0x404, true, None);
        assert_eq!(op.sources().count(), 0);
    }

    #[test]
    fn constructors_set_fields() {
        let m = MicroOp::mem(3, OpClass::Store, 0x100, 0xdead, Some(1));
        assert_eq!(m.addr, Some(0xdead));
        assert_eq!(m.class, OpClass::Store);
        let b = MicroOp::branch(4, 0x104, true, None);
        assert!(b.taken);
        assert_eq!(b.class, OpClass::Branch);
    }

    #[test]
    fn display_is_nonempty_for_all() {
        for &c in &OpClass::ALL {
            assert!(!format!("{c}").is_empty());
        }
        for &d in &ExecDomain::ALL {
            assert!(!format!("{d}").is_empty());
        }
    }
}
