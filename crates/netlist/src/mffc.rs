//! Maximum fanout-free cone (MFFC) computation.
//!
//! The MFFC of a node `r` is the largest cone rooted at `r` such that every
//! path from any cone node to a primary output passes through `r`. When `r`
//! is replaced (e.g. by a T1 cell output), exactly the MFFC nodes become
//! dead, so the area gain of eq. (2) of the paper is the summed area of the
//! MFFC members.
//!
//! The implementation is the reference-counting dereference walk of
//! DAG-aware rewriting (Mishchenko et al., DAC'06): virtually remove `r`,
//! decrement the reference counts of its fanins, and continue into every
//! fanin whose count reaches zero. The walk runs on an explicit stack, so
//! arbitrarily deep networks cannot overflow the call stack. The reference
//! counts and visited marks live as long as the calculator; every decrement
//! is logged and undone after the query, so a query costs time and memory
//! proportional to the cone it walks, not to the network size.
//!
//! # Examples
//!
//! ```
//! use sfq_netlist::aig::Aig;
//! use sfq_netlist::mffc::Mffc;
//!
//! let mut aig = Aig::new();
//! let a = aig.add_pi();
//! let b = aig.add_pi();
//! let c = aig.add_pi();
//! let m = aig.maj3(a, b, c);
//! aig.add_po(m);
//! let mut mffc = Mffc::new(&aig);
//! // All five AND nodes of the majority belong to the root's MFFC.
//! assert_eq!(mffc.size(m.node()), 5);
//! ```

use crate::aig::{Aig, NodeId, NodeKind};

/// Reusable MFFC calculator over a fixed network.
#[derive(Debug)]
pub struct Mffc<'a> {
    aig: &'a Aig,
    /// Fanout reference counts; equal to the network's between queries.
    refs: Vec<u32>,
    /// Membership marks of the current query; all `false` between queries.
    visited: Vec<bool>,
    /// One entry per reference decrement of the current query.
    undo: Vec<NodeId>,
    /// Pending nodes of the dereference walk.
    stack: Vec<NodeId>,
}

impl<'a> Mffc<'a> {
    /// Creates a calculator for `aig`.
    pub fn new(aig: &'a Aig) -> Self {
        Mffc {
            aig,
            refs: aig.fanout_counts(),
            visited: vec![false; aig.len()],
            undo: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Number of AND nodes in the MFFC of `root`.
    pub fn size(&mut self, root: NodeId) -> usize {
        self.members(root).len()
    }

    /// The AND nodes forming the MFFC of `root` (including `root` itself if
    /// it is an AND node). PIs and the constant node are never members.
    pub fn members(&mut self, root: NodeId) -> Vec<NodeId> {
        self.members_bounded(root, &[])
    }

    /// MFFC of `root` bounded by `boundary` nodes: the dereference walk does
    /// not descend past (or include) boundary nodes. Used with cut leaves to
    /// measure exactly the cone a cut replacement removes.
    pub fn members_bounded(&mut self, root: NodeId, boundary: &[NodeId]) -> Vec<NodeId> {
        self.union_members_bounded(&[root], boundary)
    }

    /// Union of MFFCs of several roots: the set of AND nodes that die when
    /// *all* roots are removed together.
    ///
    /// This is at least as large as any single MFFC and at most the sum of
    /// the individual ones; the sequential dereference makes overlap exact.
    pub fn union_members(&mut self, roots: &[NodeId]) -> Vec<NodeId> {
        self.union_members_bounded(roots, &[])
    }

    /// Bounded variant of [`Mffc::union_members`]; see
    /// [`Mffc::members_bounded`]. The result is sorted.
    pub fn union_members_bounded(&mut self, roots: &[NodeId], boundary: &[NodeId]) -> Vec<NodeId> {
        let mut out = Vec::new();
        for &r in roots {
            if !boundary.contains(&r) {
                self.deref(r, boundary, &mut out);
            }
        }
        // Undo the query: every logged decrement, then the marks (the
        // marked nodes are exactly the members).
        for n in self.undo.drain(..) {
            self.refs[n.index()] += 1;
        }
        for n in &out {
            self.visited[n.index()] = false;
        }
        out.sort_unstable();
        out
    }

    /// Dereferences the cone of `root`, appending every newly dead AND node
    /// to `out`. The member set is the least fixed point of "a root, or a
    /// node whose references all come from members", so it does not depend
    /// on the visiting order.
    fn deref(&mut self, root: NodeId, boundary: &[NodeId], out: &mut Vec<NodeId>) {
        self.stack.push(root);
        while let Some(node) = self.stack.pop() {
            // A node may be reached both as an explicit root and as a fanin
            // whose reference count dropped to zero; its own fanin edges
            // must only be released once.
            if self.visited[node.index()] {
                continue;
            }
            let NodeKind::And(a, b) = self.aig.kind(node) else {
                continue;
            };
            self.visited[node.index()] = true;
            out.push(node);
            for f in [a.node(), b.node()] {
                if boundary.contains(&f) {
                    continue;
                }
                let r = &mut self.refs[f.index()];
                if *r > 0 {
                    *r -= 1;
                    self.undo.push(f);
                }
                if *r == 0 {
                    self.stack.push(f);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_chain_mffc_is_whole_cone() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let ab = g.and(a, b);
        let abc = g.and(ab, c);
        g.add_po(abc);
        let mut m = Mffc::new(&g);
        assert_eq!(m.size(abc.node()), 2);
        assert_eq!(m.size(ab.node()), 1);
    }

    #[test]
    fn shared_node_excluded() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let ab = g.and(a, b);
        let x = g.and(ab, c);
        let y = g.and(ab, a);
        g.add_po(x);
        g.add_po(y);
        let mut m = Mffc::new(&g);
        // ab has two fanouts, so it is not in x's MFFC.
        assert_eq!(m.members(x.node()), vec![x.node()]);
        assert_eq!(m.members(y.node()), vec![y.node()]);
    }

    #[test]
    fn union_captures_shared_interior() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let ab = g.and(a, b);
        let x = g.and(ab, c);
        let y = g.and(ab, a);
        g.add_po(x);
        g.add_po(y);
        let mut m = Mffc::new(&g);
        // Removing both x and y kills ab as well.
        let u = m.union_members(&[x.node(), y.node()]);
        assert_eq!(u.len(), 3);
        assert!(u.contains(&ab.node()));
    }

    #[test]
    fn pi_has_empty_mffc() {
        let mut g = Aig::new();
        let a = g.add_pi();
        g.add_po(a);
        let mut m = Mffc::new(&g);
        assert_eq!(m.size(a.node()), 0);
    }

    #[test]
    fn mffc_of_maj_root_counts_all_ands() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let mj = g.maj3(a, b, c);
        g.add_po(mj);
        let mut m = Mffc::new(&g);
        assert_eq!(m.size(mj.node()), g.and_count());
    }

    #[test]
    fn mffc_stops_at_po_referenced_interior() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let ab = g.and(a, b);
        let top = g.and(ab, a);
        g.add_po(top);
        g.add_po(ab); // interior node is also a PO
        let mut m = Mffc::new(&g);
        assert_eq!(m.members(top.node()), vec![top.node()]);
    }
}
