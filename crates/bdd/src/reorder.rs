//! Dynamic variable reordering by sifting.
//!
//! The paper runs its exact algorithm "with dynamic variable reordering
//! being set" (§6). We implement the classic in-place adjacent-level swap:
//! every node keeps its identity (and therefore its function), so
//! outstanding [`Ref`] handles and the operation caches stay valid across
//! reordering.

use crate::hash::FxHashSet;
use crate::manager::{Bdd, BddResult};
use crate::node::{Node, Ref, Var, TERMINAL_VAR};

impl Bdd {
    /// Swaps the variables at levels `l` and `l + 1`, in place.
    ///
    /// All existing handles remain valid and keep denoting the same
    /// functions.
    ///
    /// # Errors
    ///
    /// Returns [`crate::BddError`] if the node limit would be
    /// exceeded while rebuilding affected nodes.
    ///
    /// # Panics
    ///
    /// Panics if `l + 1` is not a valid level.
    pub fn swap_adjacent_levels(&mut self, l: usize) -> BddResult<()> {
        assert!(l + 1 < self.var_count(), "level {l} has no successor");
        // Sifting performs long runs of swaps whose `mk` calls mostly
        // hit the unique table; poll here so a deadline interrupts a
        // reorder pass promptly.
        self.poll_governor()?;
        let x = self.level2var[l];
        let y = self.level2var[l + 1];

        // Snapshot the candidate x-nodes; entries may be stale.
        let mut seen = FxHashSet::default();
        let candidates: Vec<u32> = self.var_nodes[x as usize]
            .iter()
            .copied()
            .filter(|&id| self.nodes[id as usize].var == x && seen.insert(id))
            .collect();

        for id in candidates {
            let n = self.nodes[id as usize];
            let f0 = n.lo;
            let f1 = n.hi;
            let lo_is_y = self.nodes[f0 as usize].var == y;
            let hi_is_y = self.nodes[f1 as usize].var == y;
            if !lo_is_y && !hi_is_y {
                // Node does not interact with y: it simply migrates one
                // level down when the permutation is updated below.
                continue;
            }
            let (f00, f01) = if lo_is_y {
                let c = self.nodes[f0 as usize];
                (c.lo, c.hi)
            } else {
                (f0, f0)
            };
            let (f10, f11) = if hi_is_y {
                let c = self.nodes[f1 as usize];
                (c.lo, c.hi)
            } else {
                (f1, f1)
            };
            // Both new x-nodes differ from the old key wherever it had a
            // y-node child, so the node stays registered until both
            // exist, and a failed `mk` leaves the table whole.
            let a = self.mk(x, Ref(f00), Ref(f10))?;
            let b = self.mk(x, Ref(f01), Ref(f11))?;
            debug_assert_ne!(a, b, "swapped node cannot be redundant");
            self.unique.remove(&self.nodes, n);
            let swapped = Node {
                var: y,
                lo: a.0,
                hi: b.0,
            };
            debug_assert!(
                self.unique.find(&self.nodes, swapped).is_none(),
                "level swap produced a duplicate node; canonicity violated"
            );
            self.nodes[id as usize] = swapped;
            self.unique.insert(swapped, id);
            self.var_nodes[y as usize].push(id);
        }

        self.level2var.swap(l, l + 1);
        self.var2level[x as usize] = (l + 1) as u32;
        self.var2level[y as usize] = l as u32;
        Ok(())
    }

    /// Number of live-or-dead decision nodes currently in the unique
    /// table, which registers every node of the arena (the sifting cost
    /// metric).
    fn table_size(&self) -> usize {
        self.unique.len()
    }

    /// Sifts every variable to a locally optimal level, reducing the
    /// diagram size. `roots` are the functions that must stay alive;
    /// garbage is collected between variable passes, so **all handles
    /// other than the returned ones are invalidated**.
    ///
    /// Returns the re-mapped `roots`.
    ///
    /// # Panics
    ///
    /// Panics if the node limit is exceeded.
    pub fn reduce(&mut self, roots: &[Ref]) -> Vec<Ref> {
        self.try_reduce(roots).expect("bdd node limit exceeded")
    }

    /// Fallible form of [`Bdd::reduce`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::BddError`] if the node limit would be
    /// exceeded.
    pub fn try_reduce(&mut self, roots: &[Ref]) -> BddResult<Vec<Ref>> {
        let mut roots = self.collect_garbage(roots);
        let nvars = self.var_count();
        if nvars < 2 {
            return Ok(roots);
        }
        // Sift biggest variables first.
        let mut order: Vec<u32> = (0..nvars as u32).collect();
        let sizes: Vec<usize> = (0..nvars)
            .map(|v| {
                self.var_nodes[v]
                    .iter()
                    .filter(|&&id| self.nodes[id as usize].var == v as u32)
                    .count()
            })
            .collect();
        order.sort_by_key(|&v| std::cmp::Reverse(sizes[v as usize]));

        for v in order {
            self.sift_var(Var(v))?;
            roots = self.collect_garbage(&roots);
        }
        Ok(roots)
    }

    fn sift_var(&mut self, v: Var) -> BddResult<()> {
        let nvars = self.var_count();
        let start = self.var2level[v.index()] as usize;
        let start_size = self.table_size();
        let growth_cap = start_size * 6 / 5 + 64;
        let mut best_size = start_size;
        let mut best_level = start;
        let mut l = start;

        // Down sweep.
        while l + 1 < nvars {
            self.swap_adjacent_levels(l)?;
            l += 1;
            let s = self.table_size();
            if s < best_size {
                best_size = s;
                best_level = l;
            }
            if s > growth_cap {
                break;
            }
        }
        // Up sweep to the top.
        while l > 0 {
            self.swap_adjacent_levels(l - 1)?;
            l -= 1;
            let s = self.table_size();
            if s <= best_size {
                best_size = s;
                best_level = l;
            }
            if s > growth_cap && l < best_level {
                break;
            }
        }
        // Settle at the best level seen.
        while l < best_level {
            self.swap_adjacent_levels(l)?;
            l += 1;
        }
        Ok(())
    }

    /// Rearranges the order so that `order[0]` is the topmost level.
    ///
    /// Handles stay valid. Variables not mentioned keep their relative
    /// order below the mentioned ones.
    ///
    /// # Panics
    ///
    /// Panics if the node limit is exceeded or `order` repeats a variable.
    pub fn set_order(&mut self, order: &[Var]) {
        let mut seen = FxHashSet::default();
        for v in order {
            assert!(seen.insert(v.0), "variable {v} repeated in order");
        }
        for (target_level, v) in order.iter().enumerate() {
            let mut cur = self.var2level[v.index()] as usize;
            assert!(cur >= target_level, "order processing invariant");
            while cur > target_level {
                self.swap_adjacent_levels(cur - 1)
                    .expect("bdd node limit exceeded");
                cur -= 1;
            }
        }
    }

    /// Sanity check: the unique table registers every decision node
    /// once, each reachable by probing from its key's home slot, and
    /// every node's children are strictly below it. Used by tests and
    /// debug assertions; linear in arena size.
    pub fn check_invariants(&self) -> bool {
        if self.unique.len() != self.nodes.len() - 2 || !self.unique.is_consistent(&self.nodes) {
            return false;
        }
        for node in self.nodes.iter().skip(2) {
            if node.var == TERMINAL_VAR {
                continue;
            }
            let my = self.var2level[node.var as usize];
            for child in [node.lo, node.hi] {
                let c = self.nodes[child as usize];
                if c.var != TERMINAL_VAR && self.var2level[c.var as usize] <= my {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth_vector(bdd: &Bdd, f: Ref, nvars: usize) -> Vec<bool> {
        (0..1usize << nvars)
            .map(|m| {
                let a: Vec<bool> = (0..nvars).map(|i| (m >> i) & 1 == 1).collect();
                bdd.eval(f, &a)
            })
            .collect()
    }

    #[test]
    fn swap_preserves_functions() {
        let mut bdd = Bdd::new();
        let vs = bdd.fresh_vars(4);
        let a = bdd.var(vs[0]);
        let b = bdd.var(vs[1]);
        let c = bdd.var(vs[2]);
        let d = bdd.var(vs[3]);
        let t1 = bdd.and(a, b);
        let t2 = bdd.xor(c, d);
        let f = bdd.or(t1, t2);
        let g = bdd.ite(a, t2, b);
        let before_f = truth_vector(&bdd, f, 4);
        let before_g = truth_vector(&bdd, g, 4);
        for l in 0..3 {
            bdd.swap_adjacent_levels(l).unwrap();
            assert!(bdd.check_invariants(), "invariants after swap {l}");
            assert_eq!(truth_vector(&bdd, f, 4), before_f);
            assert_eq!(truth_vector(&bdd, g, 4), before_g);
        }
        // Swap back and forth.
        bdd.swap_adjacent_levels(1).unwrap();
        bdd.swap_adjacent_levels(1).unwrap();
        assert_eq!(truth_vector(&bdd, f, 4), before_f);
        assert!(bdd.check_invariants());
    }

    #[test]
    fn reduce_shrinks_bad_order() {
        // The classic order-sensitive function: x1·x2 + x3·x4 + x5·x6
        // with interleaved-bad order x1,x3,x5,x2,x4,x6.
        let mut bdd = Bdd::new();
        let vs = bdd.fresh_vars(6);
        // Creation order IS the level order; build with the bad pairing.
        let pairs = [(0, 3), (1, 4), (2, 5)];
        let mut f = Ref::FALSE;
        for (i, j) in pairs {
            let a = bdd.var(vs[i]);
            let b = bdd.var(vs[j]);
            let t = bdd.and(a, b);
            f = bdd.or(f, t);
        }
        let before = truth_vector(&bdd, f, 6);
        let size_before = bdd.live_node_count(&[f]);
        let roots = bdd.reduce(&[f]);
        let f2 = roots[0];
        let size_after = bdd.live_node_count(&[f2]);
        assert!(bdd.check_invariants());
        assert_eq!(truth_vector(&bdd, f2, 6), before);
        assert!(
            size_after < size_before,
            "sifting should shrink {size_before} -> {size_after}"
        );
    }

    #[test]
    fn set_order_moves_vars() {
        let mut bdd = Bdd::new();
        let vs = bdd.fresh_vars(3);
        let a = bdd.var(vs[0]);
        let c = bdd.var(vs[2]);
        let f = bdd.xor(a, c);
        let before = truth_vector(&bdd, f, 3);
        bdd.set_order(&[vs[2], vs[0], vs[1]]);
        assert_eq!(bdd.variable_order(), vec![vs[2], vs[0], vs[1]]);
        assert!(bdd.check_invariants());
        assert_eq!(truth_vector(&bdd, f, 3), before);
    }

    #[test]
    fn ops_after_reorder_still_correct() {
        let mut bdd = Bdd::new();
        let vs = bdd.fresh_vars(4);
        let a = bdd.var(vs[0]);
        let b = bdd.var(vs[1]);
        let f = bdd.and(a, b);
        bdd.set_order(&[vs[3], vs[2], vs[1], vs[0]]);
        // New ops after reorder must interoperate with old handles.
        let c = bdd.var(vs[2]);
        let g = bdd.or(f, c);
        let expect = |m: usize| ((m & 1 != 0) && (m & 2 != 0)) || (m & 4 != 0);
        for m in 0..16usize {
            let asst: Vec<bool> = (0..4).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(bdd.eval(g, &asst), expect(m));
        }
        assert!(bdd.check_invariants());
    }

    /// Seeded level swaps and sifting passes over random functions, with
    /// new functions built between them. Swaps are the only deletions
    /// from the unique table, so this drives its backward shift through
    /// the manager.
    #[test]
    fn seeded_reordering_keeps_the_unique_table_and_every_root() {
        const NVARS: usize = 7;
        for seed in 0..24 {
            let mut rng = xrta_rng::Rng::seed_from_u64(0x5EED + seed);
            let mut bdd = Bdd::new();
            let vs = bdd.fresh_vars(NVARS);
            let mut roots: Vec<Ref> = vs.iter().map(|&v| bdd.var(v)).collect();
            let mut truths: Vec<Vec<bool>> = Vec::new();
            for step in 0..60 {
                if step % 3 == 0 {
                    let a = *rng.pick(&roots);
                    let b = *rng.pick(&roots);
                    let f = match rng.range(0, 3) {
                        0 => bdd.and(a, b),
                        1 => bdd.or(a, b),
                        _ => bdd.xor(a, b),
                    };
                    roots.push(f);
                } else if rng.percent(10) {
                    roots = bdd.try_reduce(&roots).unwrap();
                    assert_eq!(bdd.unique.len(), bdd.node_count() - 2, "seed {seed}");
                } else {
                    bdd.swap_adjacent_levels(rng.range(0, NVARS - 1)).unwrap();
                }
                assert!(bdd.check_invariants(), "seed {seed}, step {step}");
                truths.resize_with(roots.len(), Vec::new);
                for (f, truth) in roots.iter().zip(truths.iter_mut()) {
                    let now = truth_vector(&bdd, *f, NVARS);
                    if truth.is_empty() {
                        *truth = now;
                    } else {
                        assert_eq!(&now, truth, "seed {seed}, step {step}");
                    }
                }
            }
            let kept = bdd.collect_garbage(&roots);
            assert_eq!(bdd.unique.len(), bdd.node_count() - 2, "seed {seed}");
            assert!(bdd.check_invariants());
            for (f, truth) in kept.iter().zip(&truths) {
                assert_eq!(&truth_vector(&bdd, *f, NVARS), truth);
            }
        }
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn set_order_rejects_duplicates() {
        let mut bdd = Bdd::new();
        let vs = bdd.fresh_vars(2);
        bdd.set_order(&[vs[0], vs[0]]);
    }
}
