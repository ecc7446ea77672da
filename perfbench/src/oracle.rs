//! Output checks that do not trust the mapper.
//!
//! Each subject network is evaluated by this module's own topological walk
//! over [`Aig::fanins`], cross-checked against native integer arithmetic
//! where the subject is an adder or a multiplier. Every mapped result is
//! then simulated with
//! [`MappedCircuit::eval64`](t1map::mapped::MappedCircuit::eval64) on the same seeded vectors
//! and its schedule validated. All of this runs outside the timed region.

use crate::gen::{Arith, Rng, Subject};
use sfq_netlist::aig::{Aig, NodeKind};
use t1map::flow::FlowResult;

/// 64-bit input words per subject: 256 vectors.
const WORDS: usize = 4;

/// Evaluates the primary outputs of `aig` on the 64 vectors packed in
/// `inputs` (one word per primary input).
pub fn eval_aig(aig: &Aig, inputs: &[u64]) -> Vec<u64> {
    assert_eq!(inputs.len(), aig.pi_count(), "one word per primary input");
    let mut value = vec![0u64; aig.len()];
    for (ordinal, &pi) in aig.pis().iter().enumerate() {
        value[pi.index()] = inputs[ordinal];
    }
    let lit = |value: &[u64], l: sfq_netlist::aig::Lit| {
        let v = value[l.node().index()];
        if l.is_complement() {
            !v
        } else {
            v
        }
    };
    for id in aig.node_ids() {
        if aig.is_dead(id) || !matches!(aig.kind(id), NodeKind::And(..)) {
            continue;
        }
        let (a, b) = aig.fanins(id).expect("AND nodes have fanins");
        value[id.index()] = lit(&value, a) & lit(&value, b);
    }
    aig.pos().iter().map(|&po| lit(&value, po)).collect()
}

/// Bits `offset..offset + bits` of vector `lane`, as an integer.
fn operand(inputs: &[u64], offset: usize, bits: usize, lane: u32) -> u64 {
    (0..bits).fold(0, |acc, i| acc | (((inputs[offset + i] >> lane) & 1) << i))
}

/// The outputs `arith` prescribes for `inputs`, from integer arithmetic.
pub fn arith_reference(arith: Arith, inputs: &[u64]) -> Option<Vec<u64>> {
    match arith {
        Arith::None => None,
        // All 64 lanes at once, one bit position per step, at any width.
        Arith::Adder(bits) => {
            let (a, b) = inputs.split_at(bits);
            let mut carry = 0u64;
            let mut out: Vec<u64> = a
                .iter()
                .zip(b)
                .map(|(&x, &y)| {
                    let sum = x ^ y ^ carry;
                    carry = (x & y) | (carry & (x ^ y));
                    sum
                })
                .collect();
            out.push(carry);
            Some(out)
        }
        Arith::Multiplier(bits) => {
            assert!(bits <= 32, "product must fit 64 bits");
            let mut out = vec![0u64; 2 * bits];
            for lane in 0..64 {
                let product = operand(inputs, 0, bits, lane) * operand(inputs, bits, bits, lane);
                for (i, word) in out.iter_mut().enumerate() {
                    *word |= ((product >> i) & 1) << lane;
                }
            }
            Some(out)
        }
    }
}

/// Seeded vectors and the outputs the subject must produce on them.
#[derive(Debug, Clone)]
pub struct Reference {
    inputs: Vec<Vec<u64>>,
    outputs: Vec<Vec<u64>>,
}

impl Reference {
    /// Evaluates `subject` on seeded vectors; fails if the evaluator and
    /// the integer reference disagree (the subject is not what it claims).
    pub fn new(subject: &Subject, rng: &mut Rng) -> Result<Self, String> {
        let pis = subject.aig.pi_count();
        let inputs: Vec<Vec<u64>> = (0..WORDS)
            .map(|_| (0..pis).map(|_| rng.next_u64()).collect())
            .collect();
        let mut outputs = Vec::with_capacity(WORDS);
        for words in &inputs {
            let out = eval_aig(&subject.aig, words);
            if let Some(expect) = arith_reference(subject.arith, words) {
                if expect != out {
                    return Err(format!(
                        "{}: network disagrees with integer arithmetic",
                        subject.name
                    ));
                }
            }
            outputs.push(out);
        }
        Ok(Reference { inputs, outputs })
    }

    /// Checks that `result` computes the subject's function and carries a
    /// valid schedule.
    pub fn check(&self, result: &FlowResult) -> Result<(), String> {
        let mc = &result.mapped;
        let pis = self.inputs.first().map_or(0, Vec::len);
        if mc.num_inputs() != pis {
            return Err(format!(
                "mapped circuit has {} inputs, expected {pis}",
                mc.num_inputs()
            ));
        }
        for (words, expect) in self.inputs.iter().zip(&self.outputs) {
            if &mc.eval64(words) != expect {
                return Err("mapped circuit differs from the subject network".into());
            }
        }
        result
            .schedule
            .validate(mc)
            .map_err(|e| format!("invalid schedule: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::registry_subject;
    use t1map::cells::CellLibrary;
    use t1map::flow::{run_flow, FlowConfig};
    use t1map::mapped::{MappedCell, MappedCircuit};

    /// A copy of `mc` whose `po`-th output edge is inverted.
    fn with_inverted_po(mc: &MappedCircuit, po: usize) -> MappedCircuit {
        let mut out = MappedCircuit::new();
        for (_, cell) in mc.cells() {
            match cell {
                MappedCell::Input { .. } => out.add_input(),
                MappedCell::Const0 => out.add_const0(),
                MappedCell::Gate { tt, fanins } => out.add_gate(*tt, fanins.clone()),
                MappedCell::T1 { fanins } => out.add_t1(*fanins),
            };
        }
        for (i, &edge) in mc.pos().iter().enumerate() {
            out.add_po(edge.xor_invert(i == po));
        }
        out
    }

    #[test]
    fn evaluator_matches_integer_arithmetic() {
        let mut rng = Rng::new(1);
        for (name, width, ands) in [("adder", 16, 169), ("multiplier", 6, 333)] {
            let subject = registry_subject(name, width, ands).unwrap();
            Reference::new(&subject, &mut rng).unwrap();
        }
        let wide = Subject {
            name: "adder:200".into(),
            aig: sfq_circuits::epfl::adder(200),
            arith: Arith::Adder(200),
        };
        Reference::new(&wide, &mut rng).unwrap();
    }

    #[test]
    fn mislabelled_subject_is_rejected() {
        let mut subject = registry_subject("adder", 16, 169).unwrap();
        subject.arith = Arith::Multiplier(8);
        assert!(Reference::new(&subject, &mut Rng::new(2)).is_err());
    }

    #[test]
    fn one_inverted_po_edge_is_rejected() {
        let subject = registry_subject("adder", 16, 169).unwrap();
        let reference = Reference::new(&subject, &mut Rng::new(3)).unwrap();
        let lib = CellLibrary::default();
        let mut result = run_flow(&subject.aig, &lib, &FlowConfig::t1(4));
        reference.check(&result).unwrap();
        for po in [0, result.mapped.pos().len() - 1] {
            let good = result.mapped.clone();
            result.mapped = with_inverted_po(&good, po);
            assert!(reference.check(&result).is_err(), "inverted PO {po} passed");
            result.mapped = good;
        }
        reference.check(&result).unwrap();
    }

    #[test]
    fn broken_schedule_is_rejected() {
        let subject = registry_subject("adder", 16, 169).unwrap();
        let reference = Reference::new(&subject, &mut Rng::new(4)).unwrap();
        let mut result = run_flow(&subject.aig, &CellLibrary::default(), &FlowConfig::t1(4));
        let last = result.schedule.stages.len() - 1;
        result.schedule.stages[last] = 0;
        assert!(reference.check(&result).is_err());
    }
}
