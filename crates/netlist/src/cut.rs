//! K-feasible cut enumeration with truth-table computation.
//!
//! Implements the classic bottom-up cut enumeration of Cong et al. (FPGA'99,
//! ref \[8\] of the paper) with per-node cut-count limits ("priority cuts") and
//! dominance filtering. Every cut carries the Boolean function it computes in
//! terms of its (sorted) leaves, which is what T1 Boolean matching consumes.
//!
//! Leaves are stored inline in the cut and all cuts of the network share one
//! flat array, so enumeration allocates nothing per cut. Merged candidates
//! are filtered on their leaf sets alone; a truth table is computed only for
//! a cut that survives the dominance filter and the `max_cuts` limit.
//!
//! # Examples
//!
//! ```
//! use sfq_netlist::aig::Aig;
//! use sfq_netlist::cut::{enumerate_cuts, CutConfig};
//! use sfq_netlist::truth_table::TruthTable;
//!
//! let mut aig = Aig::new();
//! let a = aig.add_pi();
//! let b = aig.add_pi();
//! let c = aig.add_pi();
//! let m = aig.maj3(a, b, c);
//! aig.add_po(m);
//!
//! let cuts = enumerate_cuts(&aig, &CutConfig::default());
//! // Cut functions describe the positive node; the builder may hand back a
//! // complemented literal, so compare modulo the root polarity.
//! let found = cuts.cuts(m.node()).iter().any(|cut| {
//!     cut.leaves().len() == 3 && {
//!         let tt = if m.is_complement() { !cut.truth_table() } else { cut.truth_table() };
//!         tt == TruthTable::maj3()
//!     }
//! });
//! assert!(found);
//! ```

use crate::aig::{Aig, NodeId, NodeKind};
use crate::truth_table::TruthTable;

/// A cut: a set of leaves plus the function of the root in terms of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cut {
    leaves: Leaves,
    tt: TruthTable,
}

impl Cut {
    /// The sorted leaf nodes of the cut.
    pub fn leaves(&self) -> &[NodeId] {
        self.leaves.as_slice()
    }

    /// The function of the cut root over the leaves (variable `i` is
    /// `leaves()[i]`).
    pub fn truth_table(&self) -> TruthTable {
        self.tt
    }

    /// The trivial cut `{node}` of a PI or AND node.
    fn trivial(node: NodeId) -> Cut {
        Cut {
            leaves: Leaves::one(node),
            tt: TruthTable::var(1, 0),
        }
    }
}

/// A sorted leaf set of at most [`TruthTable::MAX_VARS`] nodes, stored
/// inline. Slots past `len` are always [`NodeId::CONST0`], so the derived
/// equality compares leaf sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Leaves {
    ids: [NodeId; TruthTable::MAX_VARS],
    len: u8,
}

impl Leaves {
    const EMPTY: Leaves = Leaves {
        ids: [NodeId::CONST0; TruthTable::MAX_VARS],
        len: 0,
    };

    fn one(node: NodeId) -> Leaves {
        let mut l = Leaves::EMPTY;
        l.ids[0] = node;
        l.len = 1;
        l
    }

    fn as_slice(&self) -> &[NodeId] {
        &self.ids[..usize::from(self.len)]
    }

    /// Returns `true` if every leaf of `self` is a leaf of `other`.
    fn dominates(&self, other: &Leaves) -> bool {
        self.len <= other.len
            && self
                .as_slice()
                .iter()
                .all(|l| other.as_slice().binary_search(l).is_ok())
    }

    /// The sorted union of `a` and `b`, or `None` if it has more than `max`
    /// leaves.
    fn merge(a: &Leaves, b: &Leaves, max: usize) -> Option<Leaves> {
        let (a, b) = (a.as_slice(), b.as_slice());
        let mut out = Leaves::EMPTY;
        let mut n = 0;
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let next = if j >= b.len() || (i < a.len() && a[i] <= b[j]) {
                if j < b.len() && a[i] == b[j] {
                    j += 1;
                }
                let v = a[i];
                i += 1;
                v
            } else {
                let v = b[j];
                j += 1;
                v
            };
            if n == max {
                return None;
            }
            out.ids[n] = next;
            n += 1;
        }
        out.len = n as u8;
        Some(out)
    }
}

/// Parameters of the enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutConfig {
    /// Maximum cut width (leaf count). At most 6.
    pub max_leaves: usize,
    /// Maximum number of cuts stored per node (priority-cut limit).
    pub max_cuts: usize,
}

impl Default for CutConfig {
    /// `max_leaves = 4`, `max_cuts = 25` — enough to discover all T1
    /// candidates in arithmetic networks while staying linear in practice.
    fn default() -> Self {
        CutConfig {
            max_leaves: 4,
            max_cuts: 25,
        }
    }
}

/// Per-node cut sets for a whole network.
#[derive(Debug, Clone)]
pub struct CutSet {
    /// The cuts of every node, node by node.
    cuts: Vec<Cut>,
    /// The cuts of node `i` are `cuts[start[i]..start[i + 1]]`.
    start: Vec<usize>,
}

impl CutSet {
    /// The cuts enumerated for `node` (first cut is the trivial one for
    /// PIs, and cuts are ordered smaller-first for ANDs).
    pub fn cuts(&self, node: NodeId) -> &[Cut] {
        let i = node.index();
        &self.cuts[self.start[i]..self.start[i + 1]]
    }

    /// Total number of stored cuts (diagnostic).
    pub fn total(&self) -> usize {
        self.cuts.len()
    }
}

/// Re-expresses `tt` (over `leaves`) on the superset `union` of leaves.
fn expand_tt(tt: TruthTable, leaves: &[NodeId], union: &[NodeId]) -> TruthTable {
    debug_assert!(union.len() <= TruthTable::MAX_VARS);
    let mut positions = [0usize; TruthTable::MAX_VARS];
    for (p, l) in positions.iter_mut().zip(leaves) {
        *p = union.binary_search(l).expect("leaf must be in union");
    }
    let positions = &positions[..leaves.len()];
    let m = union.len();
    let mut bits = 0u64;
    for idx in 0..(1usize << m) {
        let mut sub = 0usize;
        for (i, &p) in positions.iter().enumerate() {
            sub |= ((idx >> p) & 1) << i;
        }
        if tt.get(sub) {
            bits |= 1 << idx;
        }
    }
    TruthTable::from_bits(m, bits)
}

/// A merged leaf set together with the fanin cuts it came from, whose
/// functions are combined only if the candidate is kept.
#[derive(Clone, Copy)]
struct Candidate {
    leaves: Leaves,
    a: usize,
    b: usize,
}

/// Enumerates cuts for every node of `aig`.
///
/// # Panics
///
/// Panics if `config.max_leaves > 6` or `config.max_cuts == 0`.
pub fn enumerate_cuts(aig: &Aig, config: &CutConfig) -> CutSet {
    assert!(
        config.max_leaves <= TruthTable::MAX_VARS,
        "cut width limited to 6"
    );
    assert!(config.max_cuts > 0, "at least one cut per node required");
    let mut cuts: Vec<Cut> = Vec::with_capacity(aig.len());
    let mut start: Vec<usize> = Vec::with_capacity(aig.len() + 1);
    let mut merged: Vec<Candidate> = Vec::new();
    let mut kept: Vec<Candidate> = Vec::new();
    for id in aig.node_ids() {
        start.push(cuts.len());
        match aig.kind(id) {
            NodeKind::Const0 => cuts.push(Cut {
                leaves: Leaves::EMPTY,
                tt: TruthTable::zero(0),
            }),
            NodeKind::Input(_) => cuts.push(Cut::trivial(id)),
            NodeKind::And(fa, fb) => {
                let set = |n: NodeId| start[n.index()]..start[n.index() + 1];
                let (ra, rb) = (set(fa.node()), set(fb.node()));
                merged.clear();
                for a in ra.clone() {
                    for b in rb.clone() {
                        if let Some(leaves) =
                            Leaves::merge(&cuts[a].leaves, &cuts[b].leaves, config.max_leaves)
                        {
                            merged.push(Candidate { leaves, a, b });
                        }
                    }
                }
                // Dominance filter, smaller cuts first (stable within a
                // width): drop any cut whose leaves contain a kept cut's,
                // duplicates included.
                kept.clear();
                'widths: for width in 0..=config.max_leaves as u8 {
                    for cand in merged.iter().filter(|c| c.leaves.len == width) {
                        if kept.iter().any(|k| k.leaves.dominates(&cand.leaves)) {
                            continue;
                        }
                        kept.push(*cand);
                        if kept.len() >= config.max_cuts {
                            break 'widths;
                        }
                    }
                }
                for k in &kept {
                    let (ca, cb) = (&cuts[k.a], &cuts[k.b]);
                    let union = k.leaves.as_slice();
                    let mut ta = expand_tt(ca.tt, ca.leaves(), union);
                    let mut tb = expand_tt(cb.tt, cb.leaves(), union);
                    if fa.is_complement() {
                        ta = !ta;
                    }
                    if fb.is_complement() {
                        tb = !tb;
                    }
                    cuts.push(Cut {
                        leaves: k.leaves,
                        tt: ta & tb,
                    });
                }
                // The trivial cut is always present (consumers build their
                // direct fanin cuts from it); it rides on top of the limit
                // so it can never be crowded out.
                cuts.push(Cut::trivial(id));
            }
        }
    }
    start.push(cuts.len());
    CutSet { cuts, start }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::Lit;

    fn tiny_and() -> (Aig, Lit) {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.and(a, b);
        g.add_po(x);
        (g, x)
    }

    #[test]
    fn and_node_has_pi_cut() {
        let (g, x) = tiny_and();
        let cuts = enumerate_cuts(&g, &CutConfig::default());
        let set = cuts.cuts(x.node());
        let two_leaf = set
            .iter()
            .find(|c| c.leaves().len() == 2)
            .expect("2-leaf cut");
        let expect = TruthTable::var(2, 0) & TruthTable::var(2, 1);
        assert_eq!(two_leaf.truth_table(), expect);
    }

    #[test]
    fn trivial_cut_present() {
        let (g, x) = tiny_and();
        let cuts = enumerate_cuts(&g, &CutConfig::default());
        assert!(cuts.cuts(x.node()).iter().any(|c| c.leaves() == [x.node()]));
    }

    #[test]
    fn xor3_found_as_3cut() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let x = g.xor3(a, b, c);
        g.add_po(x);
        let cuts = enumerate_cuts(&g, &CutConfig::default());
        // The root literal may be complemented (xor is built via or); the cut
        // function describes the positive node, so compare modulo polarity.
        let found = cuts.cuts(x.node()).iter().any(|cut| {
            cut.leaves().len() == 3 && {
                let tt = if x.is_complement() {
                    !cut.truth_table()
                } else {
                    cut.truth_table()
                };
                tt == TruthTable::xor3()
            }
        });
        assert!(found, "xor3 cut must be enumerated");
    }

    #[test]
    fn maj3_found_as_3cut() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let m = g.maj3(a, b, c);
        g.add_po(m);
        let cuts = enumerate_cuts(&g, &CutConfig::default());
        let found = cuts.cuts(m.node()).iter().any(|cut| {
            cut.leaves().len() == 3 && {
                let tt = if m.is_complement() {
                    !cut.truth_table()
                } else {
                    cut.truth_table()
                };
                tt == TruthTable::maj3()
            }
        });
        assert!(found, "maj3 cut must be enumerated");
    }

    #[test]
    fn or3_found_with_complements() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let o1 = g.or(a, b);
        let o = g.or(o1, c);
        g.add_po(o);
        let cuts = enumerate_cuts(&g, &CutConfig::default());
        // The root node computes !(or3) structurally (AND of complements);
        // its positive-literal function is the AND; with the PO complement it
        // is or3. Check that the 3-cut function matches !or3 on the node.
        let found = cuts.cuts(o.node()).iter().any(|cut| {
            cut.leaves().len() == 3 && {
                let tt = if o.is_complement() {
                    !cut.truth_table()
                } else {
                    cut.truth_table()
                };
                tt == TruthTable::or3()
            }
        });
        assert!(found, "or3 cut must be enumerated (modulo root polarity)");
    }

    #[test]
    fn cut_functions_match_network_eval() {
        // Property: for every cut of every node, evaluating the cut TT on the
        // leaf values equals the node value.
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let d = g.add_pi();
        let s1 = g.xor(a, b);
        let s2 = g.maj3(s1, c, d);
        let s3 = g.and(s2, a);
        g.add_po(s3);
        let cuts = enumerate_cuts(
            &g,
            &CutConfig {
                max_leaves: 4,
                max_cuts: 50,
            },
        );

        for idx in 0..16u32 {
            let bits: Vec<bool> = (0..4).map(|i| idx >> i & 1 == 1).collect();
            let words: Vec<u64> = bits.iter().map(|&x| if x { u64::MAX } else { 0 }).collect();
            // Node values:
            let mut vals = vec![false; g.len()];
            for id in g.node_ids() {
                vals[id.index()] = match g.kind(id) {
                    NodeKind::Const0 => false,
                    NodeKind::Input(i) => bits[i as usize],
                    NodeKind::And(fa, fb) => {
                        (vals[fa.node().index()] ^ fa.is_complement())
                            & (vals[fb.node().index()] ^ fb.is_complement())
                    }
                };
            }
            let _ = words;
            for id in g.node_ids() {
                for cut in cuts.cuts(id) {
                    let mut leaf_idx = 0usize;
                    for (i, l) in cut.leaves().iter().enumerate() {
                        if vals[l.index()] {
                            leaf_idx |= 1 << i;
                        }
                    }
                    assert_eq!(
                        cut.truth_table().get(leaf_idx),
                        vals[id.index()],
                        "cut of node {id:?} disagrees at input {idx}"
                    );
                }
            }
        }
    }

    #[test]
    fn max_cuts_respected() {
        let mut g = Aig::new();
        let pis: Vec<_> = (0..8).map(|_| g.add_pi()).collect();
        let mut acc = pis[0];
        for &p in &pis[1..] {
            acc = g.xor(acc, p);
        }
        g.add_po(acc);
        let cfg = CutConfig {
            max_leaves: 4,
            max_cuts: 5,
        };
        let cuts = enumerate_cuts(&g, &cfg);
        for id in g.node_ids() {
            assert!(cuts.cuts(id).len() <= cfg.max_cuts + 1);
        }
    }

    #[test]
    fn dominated_cuts_removed() {
        let (g, x) = tiny_and();
        let cuts = enumerate_cuts(&g, &CutConfig::default());
        // The {a, b} cut must not coexist with a dominated {a, b, anything}.
        for c in cuts.cuts(x.node()) {
            assert!(c.leaves().len() <= 2);
        }
    }
}
