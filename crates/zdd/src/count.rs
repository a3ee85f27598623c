//! Counting members and nodes of a family.

use crate::hash::FxHashMap;
use crate::node::NodeId;
use crate::Zdd;

impl Zdd {
    /// Number of sets in the family, saturating at `u128::MAX`.
    ///
    /// # Example
    ///
    /// ```
    /// use zdd::{Var, Zdd};
    /// let mut z = Zdd::default();
    /// let f = z.from_sets([vec![Var(0)], vec![Var(1)], vec![]]);
    /// assert_eq!(z.count(f), 3);
    /// ```
    pub fn count(&self, f: NodeId) -> u128 {
        let mut memo: FxHashMap<NodeId, u128> = FxHashMap::default();
        self.count_rec(f, &mut memo)
    }

    fn count_rec(&self, f: NodeId, memo: &mut FxHashMap<NodeId, u128>) -> u128 {
        match f {
            NodeId::EMPTY => 0,
            NodeId::BASE => 1,
            _ => {
                if let Some(&c) = memo.get(&f) {
                    return c;
                }
                let c = self
                    .count_rec(self.lo(f), memo)
                    .saturating_add(self.count_rec(self.hi(f), memo));
                memo.insert(f, c);
                c
            }
        }
    }

    /// Number of distinct internal nodes reachable from `f` (terminals
    /// excluded) — the "size" of the diagram.
    pub fn node_count(&self, f: NodeId) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        while let Some(n) = stack.pop() {
            if n.is_terminal() || !seen.insert(n) {
                continue;
            }
            stack.push(self.lo(n));
            stack.push(self.hi(n));
        }
        seen.len()
    }

    /// Number of internal nodes on the longest root-to-terminal path of
    /// `f` (0 for a terminal). The recursive operations (`count`,
    /// `minimal`, `subset0`, …) nest once per node along such a path, so
    /// this bounds their stack depth. Computed with an explicit stack, so
    /// it is safe on any diagram.
    ///
    /// # Example
    ///
    /// ```
    /// use zdd::{Var, Zdd};
    /// let mut z = Zdd::default();
    /// // {0}, {1}, {2}: a lo-chain three nodes deep, every set a singleton.
    /// let f = z.from_sets([vec![Var(0)], vec![Var(1)], vec![Var(2)]]);
    /// assert_eq!(z.depth(f), 3);
    /// ```
    pub fn depth(&self, f: NodeId) -> usize {
        let mut memo: FxHashMap<NodeId, usize> = FxHashMap::default();
        let known = |memo: &FxHashMap<NodeId, usize>, n: NodeId| {
            if n.is_terminal() {
                Some(0)
            } else {
                memo.get(&n).copied()
            }
        };
        let mut stack = vec![f];
        while let Some(&n) = stack.last() {
            if known(&memo, n).is_some() {
                stack.pop();
                continue;
            }
            let (lo, hi) = (self.lo(n), self.hi(n));
            match (known(&memo, lo), known(&memo, hi)) {
                (Some(a), Some(b)) => {
                    memo.insert(n, 1 + a.max(b));
                    stack.pop();
                }
                (a, b) => {
                    if a.is_none() {
                        stack.push(lo);
                    }
                    if b.is_none() {
                        stack.push(hi);
                    }
                }
            }
        }
        known(&memo, f).expect("the root was resolved")
    }
}

#[cfg(test)]
mod tests {
    use crate::{NodeId, Var, Zdd};

    #[test]
    fn terminal_counts() {
        let z = Zdd::default();
        assert_eq!(z.count(NodeId::EMPTY), 0);
        assert_eq!(z.count(NodeId::BASE), 1);
        assert_eq!(z.node_count(NodeId::BASE), 0);
    }

    #[test]
    fn counts_with_sharing() {
        let mut z = Zdd::default();
        // Power set of {0,1,2} minus the empty set: 7 members.
        let mut f = z.base();
        for v in (0..3).rev() {
            f = z.node(Var(v), f, f);
        }
        let base = z.base();
        let f = z.difference(f, base);
        assert_eq!(z.count(f), 7);
    }

    #[test]
    fn depth_is_the_longest_path() {
        let mut z = Zdd::default();
        assert_eq!(z.depth(NodeId::EMPTY), 0);
        assert_eq!(z.depth(NodeId::BASE), 0);
        // {0, 1, 2} is a hi-chain three deep; {3} hangs off the lo-chain
        // of the root's 0-node at depth 2.
        let f = z.from_sets([vec![Var(0), Var(1), Var(2)], vec![Var(3)]]);
        assert_eq!(z.depth(f), 3);
        // A long lo-chain of singletons is as deep as it is wide, and the
        // explicit stack handles it on a small thread.
        let deep = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(|| {
                let mut z = Zdd::default();
                let f = z.from_sets((0..100_000).map(|v| vec![Var(v)]));
                z.depth(f)
            })
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(deep, 100_000);
    }

    #[test]
    fn node_count_counts_shared_once() {
        let mut z = Zdd::default();
        let mut f = z.base();
        for v in (0..10).rev() {
            f = z.node(Var(v), f, f);
        }
        // Fully shared chain: 10 internal nodes, 2^10 members.
        assert_eq!(z.node_count(f), 10);
        assert_eq!(z.count(f), 1024);
    }
}
