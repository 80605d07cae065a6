//! Parameterized circuits: the ansatz path used by QAOA/DQAOA.
//!
//! A [`ParamCircuit`] is a circuit template whose rotation angles may be
//! affine functions of a parameter vector (`coeff * theta[k] + offset`).
//! Each optimizer iteration binds a fresh parameter vector to obtain an
//! executable [`Circuit`] — mirroring how Qiskit's `Parameter` objects are
//! bound before submission to a backend.

use crate::circuit::{check_operands, Circuit, Op, OperandError};
use crate::gate::Gate;

/// An angle that is either a literal or an affine function of one parameter:
/// `coeff * theta[index] + offset`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Angle {
    /// A fixed angle.
    Lit(f64),
    /// `coeff * theta[index] + offset`.
    Sym {
        /// Index into the bound parameter vector.
        index: usize,
        /// Multiplicative coefficient (QUBO weights enter here).
        coeff: f64,
        /// Additive offset.
        offset: f64,
    },
}

impl Angle {
    /// A pure symbolic parameter `theta[index]`.
    pub fn sym(index: usize) -> Angle {
        Angle::Sym {
            index,
            coeff: 1.0,
            offset: 0.0,
        }
    }

    /// `coeff * theta[index]`.
    pub fn scaled(index: usize, coeff: f64) -> Angle {
        Angle::Sym {
            index,
            coeff,
            offset: 0.0,
        }
    }

    /// Evaluates against a bound parameter vector.
    pub fn bind(&self, params: &[f64]) -> f64 {
        match *self {
            Angle::Lit(v) => v,
            Angle::Sym {
                index,
                coeff,
                offset,
            } => {
                assert!(
                    index < params.len(),
                    "angle references theta[{index}] but only {} parameters were bound",
                    params.len()
                );
                coeff * params[index] + offset
            }
        }
    }

    /// Highest parameter index referenced, if symbolic.
    fn max_index(&self) -> Option<usize> {
        match self {
            Angle::Lit(_) => None,
            Angle::Sym { index, .. } => Some(*index),
        }
    }
}

impl From<f64> for Angle {
    fn from(v: f64) -> Angle {
        Angle::Lit(v)
    }
}

/// A templated operation: a parameterized rotation, a fixed gate, or a
/// measurement.
#[derive(Clone, Debug, PartialEq)]
pub enum ParamOp {
    /// `rx(angle) q`
    Rx(usize, Angle),
    /// `ry(angle) q`
    Ry(usize, Angle),
    /// `rz(angle) q`
    Rz(usize, Angle),
    /// `p(angle) q`
    Phase(usize, Angle),
    /// `rzz(angle) a b`
    Rzz(usize, usize, Angle),
    /// `rxx(angle) a b`
    Rxx(usize, usize, Angle),
    /// `cp(angle) c t`
    Cp(usize, usize, Angle),
    /// Any fixed (non-parameterized) gate.
    Fixed(Gate),
    /// Measurement (copied through binding verbatim).
    Measure {
        /// Measured qubit.
        qubit: usize,
        /// Destination classical bit.
        clbit: usize,
    },
}

/// A circuit template over `num_qubits` qubits and `num_params` symbolic
/// parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct ParamCircuit {
    num_qubits: usize,
    ops: Vec<ParamOp>,
    /// Display name carried onto every bound circuit.
    pub name: String,
}

impl ParamCircuit {
    /// Creates an empty template.
    pub fn new(num_qubits: usize) -> Self {
        ParamCircuit {
            num_qubits,
            ops: Vec::new(),
            name: String::new(),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of parameters the template references (one past the highest
    /// index used).
    pub fn num_params(&self) -> usize {
        self.ops
            .iter()
            .filter_map(|op| match op {
                ParamOp::Rx(_, a)
                | ParamOp::Ry(_, a)
                | ParamOp::Rz(_, a)
                | ParamOp::Phase(_, a)
                | ParamOp::Rzz(_, _, a)
                | ParamOp::Rxx(_, _, a)
                | ParamOp::Cp(_, _, a) => a.max_index(),
                _ => None,
            })
            .max()
            .map_or(0, |m| m.saturating_add(1))
    }

    /// The templated operation list.
    pub fn ops(&self) -> &[ParamOp] {
        &self.ops
    }

    /// Appends a templated op.
    ///
    /// # Panics
    /// Panics on an invalid operand; [`ParamCircuit::try_push`] reports it
    /// instead.
    pub fn push(&mut self, op: ParamOp) -> &mut Self {
        self.try_push(op)
            .unwrap_or_else(|e| panic!("invalid operation: {e}"))
    }

    /// Appends a templated op after the operand checks of
    /// [`Circuit::try_push_op`], applied to the op it binds to (measurements
    /// write into a classical register as wide as the quantum one).
    pub fn try_push(&mut self, op: ParamOp) -> Result<&mut Self, OperandError> {
        check_operands(&op.concrete(|_| 0.0), self.num_qubits, self.num_qubits)?;
        self.ops.push(op);
        Ok(self)
    }

    /// Appends a fixed gate.
    pub fn fixed(&mut self, gate: Gate) -> &mut Self {
        self.push(ParamOp::Fixed(gate))
    }

    /// Hadamard sugar (QAOA's initial superposition layer).
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.fixed(Gate::H(q))
    }

    /// Parameterized X rotation.
    pub fn rx(&mut self, q: usize, a: impl Into<Angle>) -> &mut Self {
        self.push(ParamOp::Rx(q, a.into()))
    }

    /// Parameterized Z rotation.
    pub fn rz(&mut self, q: usize, a: impl Into<Angle>) -> &mut Self {
        self.push(ParamOp::Rz(q, a.into()))
    }

    /// Parameterized ZZ interaction.
    pub fn rzz(&mut self, a: usize, b: usize, angle: impl Into<Angle>) -> &mut Self {
        self.push(ParamOp::Rzz(a, b, angle.into()))
    }

    /// Measures every qubit.
    pub fn measure_all(&mut self) -> &mut Self {
        for q in 0..self.num_qubits {
            self.ops.push(ParamOp::Measure { qubit: q, clbit: q });
        }
        self
    }

    /// Binds a parameter vector, producing an executable [`Circuit`].
    ///
    /// # Panics
    /// Panics when `params` is shorter than [`num_params`](Self::num_params).
    pub fn bind(&self, params: &[f64]) -> Circuit {
        assert!(
            params.len() >= self.num_params(),
            "bound {} parameters but the template references {}",
            params.len(),
            self.num_params()
        );
        let mut qc = Circuit::new(self.num_qubits);
        qc.name = self.name.clone();
        for op in &self.ops {
            qc.push_op(op.concrete(|a| a.bind(params)));
        }
        qc
    }
}

impl ParamOp {
    /// The concrete op this one binds to, each angle evaluated by `angle`.
    fn concrete(&self, angle: impl Fn(&Angle) -> f64) -> Op {
        Op::Gate(match self {
            ParamOp::Rx(q, a) => Gate::Rx(*q, angle(a)),
            ParamOp::Ry(q, a) => Gate::Ry(*q, angle(a)),
            ParamOp::Rz(q, a) => Gate::Rz(*q, angle(a)),
            ParamOp::Phase(q, a) => Gate::Phase(*q, angle(a)),
            ParamOp::Rzz(x, y, a) => Gate::Rzz(*x, *y, angle(a)),
            ParamOp::Rxx(x, y, a) => Gate::Rxx(*x, *y, angle(a)),
            ParamOp::Cp(c, t, a) => Gate::Cp(*c, *t, angle(a)),
            ParamOp::Fixed(g) => g.clone(),
            ParamOp::Measure { qubit, clbit } => {
                return Op::Measure {
                    qubit: *qubit,
                    clbit: *clbit,
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_literal_and_symbolic() {
        let mut t = ParamCircuit::new(2);
        t.h(0)
            .rzz(0, 1, Angle::scaled(0, 2.0))
            .rx(0, Angle::sym(1))
            .rx(1, 0.5);
        assert_eq!(t.num_params(), 2);
        let qc = t.bind(&[0.3, 0.7]);
        let gates: Vec<_> = qc.gates().cloned().collect();
        assert_eq!(gates[0], Gate::H(0));
        assert_eq!(gates[1], Gate::Rzz(0, 1, 0.6));
        assert_eq!(gates[2], Gate::Rx(0, 0.7));
        assert_eq!(gates[3], Gate::Rx(1, 0.5));
    }

    #[test]
    fn rebinding_gives_fresh_circuits() {
        let mut t = ParamCircuit::new(1);
        t.rz(0, Angle::sym(0));
        let a = t.bind(&[1.0]);
        let b = t.bind(&[2.0]);
        assert_ne!(a, b);
        assert_eq!(t.bind(&[1.0]), a);
    }

    #[test]
    fn offset_and_coeff_combine() {
        let angle = Angle::Sym {
            index: 0,
            coeff: -3.0,
            offset: 1.0,
        };
        assert_eq!(angle.bind(&[2.0]), -5.0);
    }

    #[test]
    fn measure_ops_survive_binding() {
        let mut t = ParamCircuit::new(2);
        t.h(0).measure_all();
        let qc = t.bind(&[]);
        assert!(qc.measures_all());
    }

    #[test]
    fn num_params_zero_for_fixed_circuits() {
        let mut t = ParamCircuit::new(2);
        t.h(0).fixed(Gate::Cx(0, 1));
        assert_eq!(t.num_params(), 0);
    }

    #[test]
    #[should_panic(expected = "template references")]
    fn bind_underflow_panics() {
        let mut t = ParamCircuit::new(1);
        t.rx(0, Angle::sym(3));
        let _ = t.bind(&[1.0, 2.0]);
    }
}
